"""Frequency arithmetic on the d-torus.

Distance-to-integer norms, exact Diophantine scans (which also detect exact
rational relations k . omega in Z), and integer unimodular changes of
variables. Everything here is a pure function of its inputs; scans are
deterministic regardless of chunking.

The scans read each omega_j as the dyadic rational its double holds and
compare integer residues of k . omega mod 1, so their minima are exact:
continued-fraction convergents for d=1 (O(log K)), and for d >= 2 one walk
over the canonical half-space, its outer coordinates (all but the last) in
lexicographic order a fixed number at a time, that binary-searches the
sorted residues of the last coordinate: about K^(d-1) log K work instead of
K^d. Residues are uint64 or, past 64 bits, Python ints; the modulus is a
power of two, so masking reduces both kinds alike. The tie rules and the
guard on K**d are those of a visit to every lattice point. freq_norm and
dist_to_Z stay in floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import NotCoprime, NotUnimodular, ScanTooLarge

SCAN_GUARD = 10**9  # reject scans with K**d above this
WORD = 64  # lattice residues fit uint64 while every omega_j is a multiple of 2^-64


def dist_to_Z(t):
    """Distance from t to the nearest integer, in [0, 1/2].

    Accepts a float or an ndarray; returns the matching type.
    """
    arr = np.asarray(t, dtype=float)
    out = np.abs(arr - np.round(arr))
    if np.ndim(t) == 0 and not isinstance(t, np.ndarray):
        return float(out)
    return out


@dataclass(frozen=True)
class Frequency:
    """A point of T^d; components are reduced mod 1 to [0, 1) on construction."""

    components: tuple

    def __init__(self, components: Sequence[float]):
        try:
            vals = [float(c) for c in components]
        except OverflowError:  # an int past the double range
            vals = [math.inf]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"frequency components must be finite: {list(components)}")
        # a tiny negative v rounds up to 1.0, which is 0.0 on the circle
        comps = tuple(r if r < 1.0 else 0.0
                      for r in (v - math.floor(v) for v in vals))
        if len(comps) == 0:
            raise ValueError("Frequency needs dimension d >= 1")
        object.__setattr__(self, "components", comps)

    @property
    def d(self) -> int:
        return len(self.components)

    def as_array(self) -> np.ndarray:
        return np.array(self.components, dtype=float)


def freq_norm(omega: Frequency, q: int) -> float:
    """Sum over components of dist_to_Z(q * omega_j)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return float(np.sum(dist_to_Z(q * omega.as_array())))


def frequency_multiple(omega: Frequency, q: int) -> Frequency:
    """q omega mod 1, computed exactly and rounded once per component."""
    axes = range(omega.d)
    return Frequency(_exact_rows([[q if i == j else 0 for j in axes] for i in axes],
                                 omega))


def torus_distance(a: Frequency, b: Frequency) -> float:
    """Distance on T^d as the sum of componentwise distances to Z.

    The choice of norm on R^d/Z^d is a convention; this is the one used by
    every scan in this package.
    """
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    return float(np.sum(dist_to_Z(a.as_array() - b.as_array())))


@dataclass(frozen=True)
class DiophantineReport:
    K: int
    delta: float
    argmin_k: tuple


def _check_guard(d: int, K: int) -> None:
    if K < 1:
        raise ValueError("K must be >= 1")
    if K**d > SCAN_GUARD:
        raise ScanTooLarge(f"K**d = {K}**{d} exceeds the scan guard {SCAN_GUARD}")


def _dyadic(omega: Frequency) -> tuple:
    """(numerators m_j, modulus 2^b) with omega_j = m_j / 2^b exactly.

    A double is a dyadic rational, so one common b covers every component.
    b is at least 64: residues of k . m mod 2^64 are then plain uint64
    wraparound, and scaling numerators and modulus by one power of two
    leaves every comparison of distances unchanged.
    """
    ratios = [c.as_integer_ratio() for c in omega.components]
    bits = max([WORD] + [den.bit_length() - 1 for _, den in ratios])
    modulus = 1 << bits
    ms = [(num << (bits - den.bit_length() + 1)) % modulus for num, den in ratios]
    return ms, modulus


def _convergent_scan(m: int, modulus: int, K: int) -> tuple:
    """Smallest (dist, k, (k,)) over 1 <= k <= K in one dimension.

    dist is min(r, modulus - r) with r = k m mod modulus. The smallest k that
    minimizes the key is a best approximation of the second kind of
    m / modulus, hence a continued-fraction convergent denominator
    (Khinchin, Continued Fractions, Thm. 16), so only the O(log K)
    denominators up to K are visited.
    """
    best = None
    q_prev, q = 0, 1
    num, den = modulus, m  # continued fraction of modulus / m = 1 / alpha
    while q <= K:
        r = q * m % modulus
        cand = (min(r, modulus - r), q, (q,))
        if best is None or cand < best:
            best = cand
        if den == 0:
            break
        a, rem = divmod(num, den)
        num, den = den, rem
        q_prev, q = q, a * q + q_prev
    return best


def _residues(values: np.ndarray, m: int, modulus: int) -> np.ndarray:
    """values * m mod modulus for an int64 array: uint64 when modulus is 2^64
    (the product wraps mod 2^64 by itself), Python ints otherwise.

    Every later sum, difference or negation of residues is reduced with
    & (modulus - 1), which is exact for both kinds since modulus is a power
    of two.
    """
    if modulus == 1 << WORD:
        return values.astype(np.uint64) * np.uint64(m)
    return np.array([int(v) * m % modulus for v in values], dtype=object)


def _points(flat: np.ndarray, shape: tuple, K: int) -> tuple:
    """(coordinates, max-norms) of the points at flat positions of the box
    with lead 1..K and every later axis in [-K, K], in lexicographic order."""
    lead, *rest = np.unravel_index(flat, shape)
    lead += 1
    norm = lead
    for c in rest:
        c -= K
        norm = np.maximum(norm, np.abs(c))
    return [lead] + rest, norm


def _lattice_scan(ms: Sequence[int], modulus: int, K: int,
                  max_rows: int = 1 << 13) -> tuple:
    """Smallest (dist, max-norm, k) over the canonical half-space.

    dist is modulus times dist_to_Z(k . omega). The half-space holds the
    nonzero k in [-K, K]^d whose first nonzero component is positive;
    dist is even in k, so it is exhaustive, and ordering ties by
    (max-norm, lex) within it fixes the result. The lead-zero part recurses
    one dimension down, to the convergent walk at d = 1.

    For lead v >= 1, k = (o, u) is an outer point o = (v, c) and a last
    coordinate u. The residues u m_d for u in [-K, K] are sorted once; they
    are closed under negation, so the smallest fold of o . m + u m_d over
    all u is the circular distance from the outer residue to its nearer
    neighbour among them, which a binary search finds. The outer points are
    walked in lexicographic order, max_rows at a time, by their flat
    position in the box 1..K times [-K, K]^(d-2). A chunk is skipped when its
    key, the smallest such fold, exceeds the best so far. Otherwise
    only its outers whose nearest fold is at most the key (and, on a tie
    with the best key, whose max-norm could still win) are expanded against
    every u, and the first minimum of the max-norm by flat position, which
    is lex order, is taken. That is about K (2K+1)^(d-2) log K work instead
    of the K (2K+1)^(d-1) of a visit to every point, with the same result;
    the guard on K**d is unchanged.

    An expansion takes max(1, max_rows // (2K+1)) outers at a time, so no
    array holds more than max(max_rows, 2K+1) elements. The default keeps
    each chunk array at 64 KiB, under glibc's 128 KiB mmap threshold, so the
    scan's memory is reused rather than mapped afresh for every chunk.
    """
    if len(ms) == 1:
        return _convergent_scan(ms[0], modulus, K)
    dist, norm, k = _lattice_scan(ms[1:], modulus, K, max_rows)
    best = (dist, norm, (0,) + k)
    mask = modulus - 1
    side = np.arange(-K, K + 1, dtype=np.int64)
    last = _residues(side, ms[-1], modulus)
    ring = np.sort(last)
    # extended by one wrapped element at either end, so that searchsorted
    # slot j of the sorted residues lies between ring[j] and ring[j + 1]
    ring = np.concatenate([ring[-1:], ring, ring[:1]])
    shape = (K,) + (side.size,) * (len(ms) - 2)
    axes = [_residues(side[K + 1:], ms[0], modulus)]
    axes += [_residues(side, m, modulus) for m in ms[1:-1]]
    group = max(1, max_rows // side.size)
    total = math.prod(shape)
    for start in range(0, total, max_rows):
        idx = list(np.unravel_index(
            np.arange(start, min(total, start + max_rows)), shape))
        outer = axes[0][idx.pop(0)]
        for res in axes[1:]:
            outer = (outer + res[idx.pop(0)]) & mask
        j = np.searchsorted(ring[1:-1], outer, side="right")
        near = (outer - ring[j]) & mask
        near = np.minimum(near, (ring[j + 1] - outer) & mask)
        del j
        key = int(near.min())
        if key > best[0]:
            continue
        hits = np.flatnonzero(near <= key) + start
        del near
        if key == best[0]:
            hits = hits[_points(hits, shape, K)[1] <= best[1]]
        for g in range(0, hits.size, group):
            sel = hits[g:g + group]
            r = (outer[sel - start][:, None] + last) & mask
            io, iu = np.divmod(np.flatnonzero(np.minimum(r, -r & mask) <= key),
                               side.size)
            del r
            coords, norms = _points(sel[io] * side.size + iu,
                                    shape + (side.size,), K)
            h = int(np.argmin(norms))  # first minimum: lex order
            best = min(best, (key, int(norms[h]),
                              tuple(int(c[h]) for c in coords)))
    return best


def min_dot_norm(omega: Frequency, K: int) -> DiophantineReport:
    """Exact minimum of dist_to_Z(k . omega) over 0 < |k| <= K.

    Each omega_j is taken as the dyadic rational its double holds, and k .
    omega is reduced in integer arithmetic, so delta is the correctly rounded
    exact minimum. |k| is the max-norm. Ties: smallest |k| first, then
    lexicographic over the canonical half-space. Raises ScanTooLarge when
    K**d > 1e9.

    delta == 0 marks an exact relation k . omega in Z (no nonzero residue
    rounds to 0.0, since b <= 1074), and argmin_k is then its smallest
    witness by (max-norm, lex): the scan takes the first (distance,
    max-norm, lex) minimum, so exact rational dependence up to K needs no
    separate query.
    """
    _check_guard(omega.d, K)
    ms, modulus = _dyadic(omega)
    r, _, k = _lattice_scan(ms, modulus, K)
    return DiophantineReport(K=K, delta=r / modulus, argmin_k=k)


# ---------------------------------------------------------------------------
# Integer unimodular automorphisms
# ---------------------------------------------------------------------------

def _det_inverse(rows: list) -> tuple:
    """(det, inverse) of a square integer matrix B, the inverse as Fractions.

    One exact Gauss-Jordan elimination over Fraction on [B | I], O(d^3)
    operations; the inverse is None when B is singular.
    """
    d = len(rows)
    aug = [[Fraction(v) for v in r] + [Fraction(int(i == j)) for j in range(d)]
           for i, r in enumerate(rows)]
    det = Fraction(1)
    for c in range(d):
        p = next((i for i in range(c, d) if aug[i][c] != 0), None)
        if p is None:
            return 0, None
        if p != c:
            aug[c], aug[p] = aug[p], aug[c]
            det = -det
        pivot = aug[c][c]
        det *= pivot
        aug[c] = [v / pivot for v in aug[c]]
        for i in range(d):
            f = aug[i][c]
            if i != c and f != 0:
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return int(det), [r[d:] for r in aug]


@dataclass(frozen=True)
class Automorphism:
    """B in SL_d(Z) with its exact integer inverse attached."""

    entries: tuple
    inverse: tuple

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[int]]) -> "Automorphism":
        rows = [[int(v) for v in r] for r in entries]
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise ValueError("entries must be a nonempty square matrix")
        det, inv = _det_inverse(rows)
        if det != 1:
            raise NotUnimodular(f"determinant is {det}, need +1")
        inv = [[int(v) for v in r] for r in inv]  # det == 1: integer entries
        ident = [[sum(rows[i][k] * inv[k][j] for k in range(d)) for j in range(d)]
                 for i in range(d)]
        assert ident == [[int(i == j) for j in range(d)] for i in range(d)]
        return cls(entries=tuple(tuple(r) for r in rows),
                   inverse=tuple(tuple(r) for r in inv))

    @property
    def d(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)

    def map_frequency(self, omega: Frequency) -> Frequency:
        return Frequency(_exact_rows(self.entries, omega))

    def inverse_map_frequency(self, omega: Frequency) -> Frequency:
        return Frequency(_exact_rows(self.inverse, omega))


def _exact_rows(rows: tuple, omega: Frequency) -> list:
    """(row . omega) mod 1 for each integer row, exact and rounded once."""
    w = [Fraction(c) for c in omega.components]
    return [float(sum(b * c for b, c in zip(r, w)) % 1) for r in rows]


def _complete_two(k1: int, k2: int) -> list:
    """Second row (x, y) with k1*y - k2*x = 1 and max(|x|,|y|) <= max(|k1|,|k2|)."""
    m = max(abs(k1), abs(k2))
    if k2 == 0:
        s = 1 if k1 > 0 else -1  # k1 = +-1
        return [0, s]
    if k1 == 0:
        s = 1 if k2 > 0 else -1
        return [-s, 0]
    g, u, v = _ext_gcd(k1, k2)
    assert g == 1
    a, b = -v, u  # k1*b - k2*a = k1*u + k2*v = 1
    # The solution line is (a, b) + t*(k1, k2); take the integer t minimizing
    # the sup-norm, found near the crossings of |a + t*k1| and |b + t*k2|.
    cands = set()
    for num, den in ((b - a, k1 - k2), (-(a + b), k1 + k2), (-a, k1), (-b, k2)):
        if den != 0:
            t0 = num / den
            cands.update({math.floor(t0) - 1, math.floor(t0), math.ceil(t0),
                          math.ceil(t0) + 1})
    best = min(((max(abs(a + t * k1), abs(b + t * k2)), t) for t in cands))
    t = best[1]
    x, y = a + t * k1, b + t * k2
    assert k1 * y - k2 * x == 1 and max(abs(x), abs(y)) <= m
    return [x, y]


def _ext_gcd(a: int, b: int) -> tuple:
    """(g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def _complete_first_row(k: tuple) -> list:
    """Rows of a det +1 integer matrix with first row k, entries <= max|k_l|."""
    d = len(k)
    if d == 2:
        return [list(k), _complete_two(k[0], k[1])]
    prefix, kd = k[:-1], k[-1]
    g = math.gcd(*(abs(v) for v in prefix))
    if g == 0:
        # prefix all zero, so kd = +-1; basis rows complete it
        rows = [list(k)] + [[int(i == j) for j in range(d)] for i in range(d - 1)]
        if _det_inverse(rows)[0] == -1:
            rows[-1] = [-v for v in rows[-1]]
        return rows
    kp = tuple(v // g for v in prefix)
    sub = _complete_first_row(kp)  # (d-1) x (d-1), first row kp
    gg, u, v = _ext_gcd(g, kd)
    assert gg == 1
    if g > 1:
        # balance v mod g so the last row stays within the entry bound
        t = (v + g // 2) // g if v >= 0 else -((-v + g // 2) // g)
        v -= t * g
        u += t * kd
        assert u * g + v * kd == 1
    rows = [list(k)]
    for r in sub[1:]:
        rows.append(list(r) + [0])
    rows.append([-v * kpj for kpj in kp] + [u])
    return rows


def build_automorphism(k: Sequence[int]) -> Automorphism:
    """Complete the integer vector k (gcd 1) to B in SL_d(Z) with first row k.

    All entries of B are bounded by max|k_l| in absolute value; the exact
    integer inverse is attached. Raises NotCoprime when gcd(k) != 1.
    """
    kt = tuple(int(v) for v in k)
    if len(kt) == 0:
        raise ValueError("k must be nonempty")
    g = math.gcd(*(abs(v) for v in kt)) if len(kt) > 1 else abs(kt[0])
    if g != 1:
        raise NotCoprime(f"gcd{kt} = {g}, need 1")
    if len(kt) == 1:
        if kt[0] != 1:
            raise NotCoprime("d=1 admits only k=(1,): no det +1 completion of (-1,)")
        return Automorphism.from_entries([[1]])
    rows = _complete_first_row(kt)
    m = max(abs(v) for v in kt)
    assert all(abs(v) <= m for r in rows for v in r), "entry bound violated"
    det = _det_inverse(rows)[0]
    assert det == 1, f"internal completion error: det = {det}"
    return Automorphism.from_entries(rows)
