"""Matrix-valued trigonometric polynomials on T^d and cocycle iteration.

A cocycle is a pair (A, omega): A maps the torus into 2x2 complex matrices
(real ones for Schrodinger and Jacobi cocycles with real potentials) and
omega drives the shift x -> x + omega. Iterates multiply A along the orbit,
A_N(x) = A(x + (N-1) omega) ... A(x + omega) A(x), and the central quantity is
the averaged log-norm (1/N) ln ||A_N(x)||.

Two representations coexist behind one evaluation interface: exact
trigonometric polynomials and pointwise analytic evaluators (the
determinant-renormalized cocycle, the diagonal exponential example and the
composition with a torus automorphism, whose entries are not trig
polynomials). A matrix trig polynomial is its four TrigPoly entries, so every
coefficient operation (products, sums, scalings) is TrigPoly's, entry by entry;
the only matrix-shaped data is its evaluation table. Anything with ``d`` and
``eval_many`` can be iterated: the kernel calls nothing else, and hands it
an OrbitBlock, which numpy reads as the block's points. Everything
evaluates on the real torus, strip_norm's faces included: on Im z = y a
trig polynomial is the one with coefficients c_k e^{-2 pi k.y}.

Every orbit product runs through one kernel, _iterate_chunk, entered only
through iterate_log_norm_many: a batch of starting points, read at one or
several step counts of a single orbit. iterate_log_norm is its one-point case.
On one worker the batch goes through the kernel in consecutive blocks of at
most _util.BLOCK_ROWS nodes, so a step's temporaries stay in L2 and are
reused from the heap rather than faulted in again every step; with several
workers each takes one contiguous chunk. Every node's orbit is independent,
so the split changes no bits.

Evaluation looks ahead: a chunk of m nodes advances the orbit points of the
next max(1, _util.ORBIT_LOOKAHEAD_ROWS // m) steps (8192 rows: 16 steps of a
512-node grid) and evaluates them in one eval_many call, so a short batch (a
512-node grid, a single point) pays numpy's per-call cost of evaluation once
per block of steps. Past 4096 nodes the block is one step and the points are
evaluated as they are. One evaluation is dropped before the next is
made.

Along an orbit a trig polynomial's phases come from the rotation itself:
e^{2 pi i k.(x + t omega)} = e^{2 pi i k.x} e^{2 pi i k.(t omega)}. The
kernel takes them exactly, one complex exp per node and index, only at the
global steps j = 0 mod _util.PHASE_STEPS (R), and at the R - 1 steps after
each as that exact phase times a twiddle factor, multiplied out in
separate float64 ufuncs (_upper_phases). A twiddled phase is within
2 pi |k|_1 R 2^-52 + 2^-51 of exp(2 pi i k.x_j) at the float orbit point,
so kernel evaluations are not eval_many at the orbit points bit for bit;
at omega = 0 they are. The rule goes by the global step, and every
evaluator works node by node, so neither the look-ahead nor the split
changes a bit.

Evaluation is node-contiguous from end to end. The phase table of a trig
polynomial is (n, m), one row per index k over all m nodes, and the matrix
evaluators return A(X) as an (m, 2, 2) view of entry-major (2, 2, m) memory,
the kernel's own layout, so a step copies nothing: it reads its slice of a
stacked evaluation in place. An outside evaluator may return a C-order
(m, 2, 2) stack; the step reads that strided, with the same bits. The step
is _util.step_2x2, the product alone, which avalanche's chains advance
through as well, each block of chains in its own dtype by the same
arithmetic rule.

The kernel renormalizes by powers of two: it scales a node's running
matrix U by 2^(1 - e), e the binary exponent of its largest entry modulus
mx, and adds e - 1 to an integer sum s per node; the scaling is exact
unless an entry falls into the subnormal range. It does so after every
product, or, inside an evaluation block, once per stretch of t >= 2
products, with the same bits (_iterate_chunk): a stretch runs on U
prescaled by 2^-(G t + 1), 2^G bounding one step's growth of mx, ends at
the next read, at the block's end and before G t + 1 passes
STRETCH_EXPONENT_CAP, and is kept only when no product rounded in the
subnormal range (numpy's underflow flag, which IEEE 754 raises exactly
then) and every node's mx at its end is finite and at least
UNDERFLOW_FLOOR. Scaling by a power of two commutes with every product and
sum that does not round subnormally, and the prescale keeps the stretch's
product a power of two, at most 1, times the per-step one, so a kept
stretch ends on the per-step U and s and misses no excision. No norm and no log is taken between
reads; a read at n takes one closed-form norm per node in the workers and,
once they are done, one math.log per node on the calling thread:
ln ||U||/n + (s/n) ln 2. Apart from the product's own roundings every step
is exact, and the twiddled phases are real multiplies and adds, so a real
cocycle's bytes do not depend on which SIMD kernels numpy dispatches to;
complex products still can.

Real cocycles run in real arithmetic. A matrix whose every entry has
c_{-k} = conj(c_k) exactly for every k, c_0 included (almost Mathieu,
Schrodinger and Jacobi with real v and a, any number of harmonics), is real
by construction: _real_entries decides so once, beside _tables, and
eval_many then returns float64 with the bits of the complex evaluation's
real part, whose imaginary part is 0 for one harmonic and rounding residue
for several. TrigPoly's product adds mirrored terms in mirrored order, so
products of real polynomials (jacobi_periodic blocks) stay exactly real.
What stays complex: a non-conjugate pair or a complex c_0 and
DiscontinuityExample. The renormalized and composed evaluators pass
their base's dtype through, and the kernel's running products take the
dtype of the first evaluation. With every imaginary part zero, a complex
product's real part is the float64 one, so where the complex evaluation has
no residue both arithmetics give the same bits.

Every k.x in this module comes from _dot, a fixed-order elementwise sum with
no BLAS, so a node has the same bits alone as in any batch and under any
BLAS build; every complex trig-polynomial evaluation is the one reduction
of _evaluate, and every real one its real part.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._util import (ORBIT_LOOKAHEAD_ROWS, PHASE_STEPS, UNDERFLOW_FLOOR,
                    det_2x2, grid, log_in_place, map_chunked, op_norm_2x2,
                    step_2x2)
from .errors import IdenticallySingular, OutsideStrip, Singular
from .torus import Automorphism, Frequency

TWO_PI_I = 2j * math.pi
# the largest x with e^x finite in double precision, about 709.78
LN_DBL_MAX = math.log(sys.float_info.max)
LN2 = math.log(2.0)
# most nodes per strip face when strip_norm picks the grid (256^2)
STRIP_FACE_NODES = 1 << 16
# The largest prescale exponent G t + 1 of a kernel stretch (_stretch): the
# prescale 2^-(G t + 1) is a normal number, and a product that grows by
# less than its bound still ends near 2^-900, about 2^97 above
# UNDERFLOW_FLOOR.
STRETCH_EXPONENT_CAP = 900


def _frac(x: np.ndarray) -> np.ndarray:
    return x - np.floor(x)


def _tables(d: int, coeffs: Sequence[dict], shape: tuple):
    """Evaluation table of one or more coefficient dicts over the union of
    their indices and its negatives: the sorted index table ks (n, d), the
    coefficient table cs (n,) + shape (dict e in entry e, 0 where it lacks
    the index) and the number h of indices k > 0. Built once per object, as
    the kernel evaluates A at every step; the indices are small integers,
    stored as float64 (exact) so that no step casts them."""
    index = set().union(*coeffs)
    keys = sorted(index | {tuple(-v for v in k) for k in index})
    ks = np.array(keys, dtype=float).reshape(-1, d)
    cs = np.array([[c.get(k, 0j) for c in coeffs] for k in keys],
                  dtype=complex).reshape((-1,) + shape)
    return ks, cs, len(keys) // 2


def _dot(X: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """k.x for every index k in ks (n, d) and node x in X (m, d): (n, m).

    A fixed-order elementwise sum over the d coordinates, with no BLAS, so
    each entry depends only on k and x: a node has the same bits alone as in
    any batch, under any BLAS build, and (-k).x = -(k.x) exactly.
    """
    theta = ks[:, :1] * X[:, 0]
    for j in range(1, ks.shape[1]):
        theta += ks[:, j:j + 1] * X[:, j]
    return theta


class OrbitBlock:
    """Consecutive steps of one kernel chunk's orbit, handed to eval_many.

    points (steps * m, d) holds the float orbit points of the global steps
    first, ..., first + steps - 1, step-major. numpy reads the block as
    those points (__array__, and shape is theirs), so an evaluator that
    knows nothing of orbits evaluates them as they are, and one that must
    not follow the orbit (ComposedMatrix, whose base moves by B omega)
    turns it into plain points. _upper_phases instead takes the block's
    phases by the twiddle rule, from omega and state: a dict that the
    chunk's kernel makes empty and hands to each of its blocks in order,
    where each index table keeps its twiddle table and the exact phases of
    its last anchor step. So each block's phases are taken once per index
    table, as every evaluator here does.
    """

    __slots__ = ("points", "first", "steps", "omega", "state")

    def __init__(self, points: np.ndarray, first: int, steps: int,
                 omega: np.ndarray, state: dict):
        self.points, self.first, self.steps = points, first, steps
        self.omega, self.state = omega, state

    @property
    def shape(self) -> tuple:
        return self.points.shape

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.points, dtype=dtype)
        return np.asarray(self.points, dtype=dtype)


def _as_points(X):
    """X as an (m, d) float array, or the OrbitBlock it is."""
    if isinstance(X, OrbitBlock):
        return X
    return np.atleast_2d(np.asarray(X, dtype=float))


def _phases(X, ks: np.ndarray, h: int) -> np.ndarray:
    """e^{2 pi i k.x} for every index k in ks and node x in X: (n, m).

    Index-major, so that each row is one index over all m nodes and the
    evaluators reduce over the rows straight into the kernel's entry-major
    layout. The sorted table from _tables pairs up as ks[n-1-j] = -ks[j],
    so phases are taken only for the h indices k > 0 (_upper_phases): as
    _dot negates exactly, the row of -k is the conjugate of that of k
    (imaginary part 0 - im, +0 where exp at -k.x gives +0), and the row of
    k = 0 is 1. At plain points every bit matches exp over the whole table.
    """
    n = ks.shape[0]
    out = np.empty((n, X.shape[0]), dtype=complex)
    upper, lower = out[n - h:], out[:h][::-1]
    _upper_phases(X, ks, h, out=upper)
    out[h:n - h] = 1.0
    lower.real = upper.real
    np.subtract(0.0, upper.imag, out=lower.imag)
    return out


def _upper_phases(X, ks: np.ndarray, h: int,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """e^{2 pi i k.x} over the h indices k > 0 of a table from _tables (its
    last h rows): (h, m), written into out when one is given. The one place
    where points become phases.

    At plain points X (m, d) each phase is exp(2 pi i k.x), one complex exp
    per index and node. On an OrbitBlock the phases follow the orbit: with
    R = PHASE_STEPS, the phase at global step j is E_a W_t, where
    a = j - t, t = j mod R, E_a = exp(2 pi i k.x_a) is the exact phase at
    the float orbit point of the anchor step a, and W_t = exp(2 pi i
    k.(t omega)) the phase of the point t omega, as e^{2 pi i k.(x + t
    omega)} = e^{2 pi i k.x} e^{2 pi i k.(t omega)}. The product is formed
    in separate float64 ufuncs, re = Er Wr - Ei Wi and im = Er Wi + Ei Wr,
    never by a complex multiply, whose bits depend on numpy's SIMD
    dispatch. W_0 = 1 exactly, so an anchor step keeps the exact phase's
    bits, and at omega = 0 every W_t is 1 and every phase keeps them. As
    the float orbit and t omega each carry at most t rounding errors of
    2^-53 per coordinate, a twiddled phase is within
    2 pi |k|_1 R 2^-52 + 2^-51 of exp(2 pi i k.x_j).

    The anchors go by the global step, never by the block, so the phases,
    and every evaluation made from them, do not depend on how the kernel
    cuts the orbit into blocks or the nodes into chunks. One broadcast
    over the block's (h, steps, m) phases applies the twiddles.
    """
    if isinstance(X, OrbitBlock):
        return _orbit_phases(X, ks, h, out)
    out = np.multiply(TWO_PI_I, _dot(X, ks[ks.shape[0] - h:]), out=out)
    return np.exp(out, out=out)


def _orbit_phases(block: OrbitBlock, ks: np.ndarray, h: int,
                  out: Optional[np.ndarray]) -> np.ndarray:
    """_upper_phases on an orbit block: exact phases at the anchor steps
    in it, the carried phases of the anchor before it, the twiddles."""
    R, b, j0 = PHASE_STEPS, block.steps, block.first
    pts = block.points
    m = pts.shape[0] // b
    tab = block.state.get(id(ks))
    if tab is None:
        W = _upper_phases(np.arange(R)[:, None] * block.omega, ks, h)
        # the table's owner lives as long as the chunk, so its id is a key
        tab = block.state[id(ks)] = [W.real[:, :, None], W.imag[:, :, None],
                                     None, None]
    Wr, Wi = tab[0], tab[1]
    t0 = j0 % R
    first = -t0 % R  # the offset in the block of its first anchor step
    if first < b:
        # the carried anchor is dropped first unless the first steps
        # twiddle it, so a chunk never holds two of them for nothing
        carried = tab[2:] if t0 else []
        tab[2:] = None, None
        d = pts.shape[1]
        at = pts.reshape(b, m, d)[first::R]
        P = _upper_phases(at.reshape(-1, d), ks, h).reshape(h, at.shape[0], m)
        # contiguous copies: every step until the next anchor reads them
        E = [np.ascontiguousarray(P.real), np.ascontiguousarray(P.imag)]
        del P
        if carried:
            E = [np.concatenate((c, e), axis=1) for c, e in zip(carried, E)]
        Er, Ei = E
    else:
        Er, Ei = tab[2], tab[3]
    if t0 + b <= R:  # one anchor for the whole block: a plain broadcast
        Wr, Wi = Wr[:, t0:t0 + b], Wi[:, t0:t0 + b]
    else:
        s = np.arange(t0, t0 + b)
        Wr, Wi = Wr[:, s % R], Wi[:, s % R]
        Er, Ei = Er[:, s // R], Ei[:, s // R]
    tab[2], tab[3] = Er[:, -1:], Ei[:, -1:]
    if out is None:
        out = np.empty((h, b * m), dtype=complex)
    re = out.real.reshape(h, b, m)
    im = out.imag.reshape(h, b, m)
    tmp = np.multiply(Ei, Wi)
    np.multiply(Er, Wr, out=re)
    np.subtract(re, tmp, out=re)
    np.multiply(Ei, Wr, out=tmp)
    np.multiply(Er, Wi, out=im)
    np.add(im, tmp, out=im)
    return out


def _evaluate(X: np.ndarray, ks: np.ndarray, cs: np.ndarray,
              h: int) -> np.ndarray:
    """sum_k c_k e^{2 pi i k.x} at every node x in X: shape cs.shape[1:] + (m,).

    One reduction over the index rows for every complex evaluator: the scalar
    table, the matrix table (entry-major, the kernel's layout), strip faces.
    """
    return np.einsum("nm,n...->...m", _phases(X, ks, h), cs)


def _real_entries(coeffs: Sequence[dict], ks: np.ndarray, h: int):
    """How to evaluate a table in float64, or None: for each entry
    (coefficient dict), its terms (u, Re c_k, Im c_k) for its indices k > 0
    in ascending order, u the row of k among the table's h, and its c_0.

    The rule: c_{-k} = conj(c_k) exactly for every k of every entry, c_0
    included. As _phases writes the row of -k as the exact conjugate of that
    of k, the terms at -k and k then have the same real part
    t_k = Re p_k Re c_k - Im p_k Im c_k, and the real part of _evaluate's sum
    over the sorted table is the t_k and c_0 added in the table's order (a
    zero coefficient adds a zero, which changes no sum that starts at +0).
    """
    upper = {tuple(k): u for u, k in enumerate(ks[ks.shape[0] - h:].tolist())}
    plan = []
    for c in coeffs:
        if any(c.get(tuple(-v for v in k), 0j) != ck.conjugate()
               for k, ck in c.items()):
            return None
        terms = sorted((upper[k], ck.real, ck.imag)
                       for k, ck in c.items() if k in upper)
        plan.append((terms, c.get((0,) * ks.shape[1], 0j).real))
    return plan


def _evaluate_real(X: np.ndarray, ks: np.ndarray, h: int,
                   plan: list) -> np.ndarray:
    """_evaluate's real part for a plan from _real_entries, in float64 and
    bit for bit: shape (len(plan), m). The terms are added as _evaluate
    visits them, -k for k descending, c_0, k ascending, so one harmonic is
    np.add(t, c_0) then += t. Where Re c_k or Im c_k is 0, its product in t_k
    is a zero, which changes no value, so it is left out; c_0 (+0 when
    absent, never -0) is always added, so the sign of a zero cannot show."""
    out = np.empty((len(plan), X.shape[0]))
    P = _upper_phases(X, ks, h)
    re, im = P.real, P.imag
    for row, (terms, c0) in zip(out, plan):
        if not terms:
            row.fill(c0)
            continue
        t = []
        for u, cr, ci in terms:
            tk = re[u] * cr if cr else im[u] * -ci
            if cr and ci:
                tk -= im[u] * ci
            t.append(tk)
        seq = t[::-1] + [c0] + t
        np.add(seq[0], seq[1], out=row)
        for tk in seq[2:]:
            row += tk
    return out


# ---------------------------------------------------------------------------
# Scalar trigonometric polynomials
# ---------------------------------------------------------------------------

def _mirror_key(k: tuple, k1: tuple):
    """Where the term c1_{k1} c2_{k - k1} goes among the terms of index k:
    k1 itself when k is the larger of +-k, -k1 when it is the smaller, and
    for k = 0 the pair of +-k1, so the order is the same under
    (k, k1) -> (-k, -k1) and the two terms of a pair at 0 are adjacent."""
    neg1 = tuple(-v for v in k1)
    if not any(k):
        return max(k1, neg1), k1
    return neg1 if k < tuple(-v for v in k) else k1


class TrigPoly:
    """A finite Fourier sum f(x) = sum_k c_k e^{2 pi i k.x} on T^d."""

    def __init__(self, d: int, coeffs: dict):
        self.d = int(d)
        clean = {}
        for k, c in coeffs.items():
            kt = tuple(int(v) for v in k)
            if len(kt) != self.d:
                raise ValueError(f"coefficient index {kt} has wrong dimension")
            c = complex(c)
            if c != 0:
                clean[kt] = c
        self.coeffs = clean
        self._ks, self._cs, self._half = _tables(self.d, (clean,), ())

    @classmethod
    def constant(cls, d: int, value: complex) -> "TrigPoly":
        return cls(d, {(0,) * d: value})

    @classmethod
    def cosine(cls, k: Sequence[int], amplitude: float = 1.0) -> "TrigPoly":
        """amplitude * cos(2 pi k.x)."""
        kt = tuple(int(v) for v in k)
        neg = tuple(-v for v in kt)
        return cls(len(kt), {kt: amplitude / 2.0, neg: amplitude / 2.0})

    @classmethod
    def sine(cls, k: Sequence[int], amplitude: float = 1.0) -> "TrigPoly":
        """amplitude * sin(2 pi k.x)."""
        kt = tuple(int(v) for v in k)
        neg = tuple(-v for v in kt)
        return cls(len(kt), {kt: amplitude / 2j, neg: -amplitude / 2j})

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(abs(v) for v in k) for k in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_real(self, tol: float = 1e-9) -> bool:
        for k, c in self.coeffs.items():
            neg = tuple(-v for v in k)
            if abs(c - self.coeffs.get(neg, 0j).conjugate()) > tol:
                return False
        return True

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        return _evaluate(_as_points(X), self._ks, self._cs, self._half)

    def eval(self, x) -> complex:
        return complex(self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def shift(self, t: Sequence[float]) -> "TrigPoly":
        """f(x + t): multiplies c_k by e^{2 pi i k.t}."""
        tv = np.asarray(t, dtype=float).reshape(1, -1)
        ks = np.array(list(self.coeffs), dtype=float).reshape(-1, self.d)
        theta = _dot(tv, ks)[:, 0]
        return TrigPoly(self.d, {k: c * complex(np.exp(TWO_PI_I * float(th)))
                                 for (k, c), th in zip(self.coeffs.items(), theta)})

    def conjugate(self) -> "TrigPoly":
        """x -> conj(f(x)): coefficient c_k becomes conj(c_{-k})."""
        return TrigPoly(self.d, {tuple(-v for v in k): c.conjugate()
                                 for k, c in self.coeffs.items()})

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0j) + c
        return TrigPoly(self.d, out)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(self.d, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        """The coefficient convolution, each output index's terms added in
        an order that mirrors under k -> -k.

        The terms c1_{k1} c2_{k - k1} of an index k are added by ascending
        k1, those of -k by ascending -k1, so the two sums visit mirrored
        terms in step; those of 0 go in adjacent pairs k1, -k1. Where both
        factors have c_{-k} = conj(c_k) exactly, each mirrored term is the
        exact conjugate of its partner (conj(a) conj(b) rounds as conj(ab)),
        so the product has c_{-k} = conj(c_k) exactly too and evaluates in
        float64 (_real_entries).
        """
        terms: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                terms.setdefault(k, []).append((k1, c1 * c2))
        out = {}
        for k, ts in terms.items():
            total = 0j
            for _, c in sorted(ts, key=lambda t: _mirror_key(k, t[0])):
                total += c
            out[k] = total
        return TrigPoly(self.d, out)

    def scaled(self, s: complex) -> "TrigPoly":
        return TrigPoly(self.d, {k: s * c for k, c in self.coeffs.items()})


def _as_poly(v, d: int) -> TrigPoly:
    if isinstance(v, TrigPoly):
        if v.d != d:
            raise ValueError("dimension mismatch")
        return v
    return TrigPoly.constant(d, complex(v))


# ---------------------------------------------------------------------------
# Matrix trigonometric polynomials
# ---------------------------------------------------------------------------

class TrigPolyMatrix:
    """M(2,C)-valued trig polynomial with an analyticity budget rho.

    entries = (e11, e12, e21, e22) are TrigPolys on one torus T^d, and every
    coefficient operation acts on them entry by entry. Values are immutable
    by convention; nothing here mutates a stored array.
    """

    def __init__(self, e11: TrigPoly, e12: TrigPoly, e21: TrigPoly,
                 e22: TrigPoly, rho: float):
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.entries = (e11, e12, e21, e22)
        self.d = e11.d
        if any(e.d != self.d for e in self.entries):
            raise ValueError("entries live on tori of different dimensions")
        self.rho = float(rho)
        coeffs = [e.coeffs for e in self.entries]
        self._ks, self._cs, self._half = _tables(self.d, coeffs, (2, 2))
        self._real = _real_entries(coeffs, self._ks, self._half)

    @classmethod
    def constant(cls, d: int, matrix, rho: float = 0.5) -> "TrigPolyMatrix":
        arr = np.array(matrix, dtype=complex)
        if arr.shape != (2, 2):
            raise ValueError("a constant matrix must be 2x2")
        return cls(*(TrigPoly.constant(d, c) for c in arr.reshape(-1)), rho)

    @property
    def degree(self) -> int:
        return max(e.degree for e in self.entries)

    def entry(self, i: int, j: int) -> TrigPoly:
        return self.entries[2 * i + j]

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """A at the m nodes X (m, d): an (m, 2, 2) view of entry-major
        (2, 2, m) memory. float64 when every entry is real by the rule of
        _real_entries, c_{-k} = conj(c_k) exactly (Schrodinger and Jacobi
        matrices with any number of harmonics, real constants), with the
        bits of the complex evaluation's real part (jacobi_periodic blocks
        of real v and a too); complex128 for a non-conjugate pair or a
        complex c_0. X may be an OrbitBlock (see _upper_phases)."""
        X = _as_points(X)
        if self._real is None:
            vals = _evaluate(X, self._ks, self._cs, self._half)
        else:
            vals = _evaluate_real(X, self._ks, self._half,
                                  self._real).reshape(2, 2, -1)
        return vals.transpose(2, 0, 1)

    def eval(self, x) -> np.ndarray:
        """A(x) for a real point x of T^d, with eval_many's dtype."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.d:
            raise ValueError(f"point has dimension {x.shape[0]}, expected {self.d}")
        return self.eval_many(x.reshape(1, -1))[0]

    def __matmul__(self, other: "TrigPolyMatrix") -> "TrigPolyMatrix":
        a11, a12, a21, a22 = self.entries
        b11, b12, b21, b22 = other.entries
        return TrigPolyMatrix(a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                              a21 * b11 + a22 * b21, a21 * b12 + a22 * b22,
                              min(self.rho, other.rho))

    def __add__(self, other: "TrigPolyMatrix") -> "TrigPolyMatrix":
        return TrigPolyMatrix(*(a + b for a, b in zip(self.entries, other.entries)),
                              min(self.rho, other.rho))

    def __sub__(self, other: "TrigPolyMatrix") -> "TrigPolyMatrix":
        return TrigPolyMatrix(*(a - b for a, b in zip(self.entries, other.entries)),
                              min(self.rho, other.rho))

    def scaled(self, s: complex) -> "TrigPolyMatrix":
        return TrigPolyMatrix(*(e.scaled(s) for e in self.entries), self.rho)


def det_scalar(A: TrigPolyMatrix) -> TrigPoly:
    """det A(x) as an exact trig polynomial (coefficient convolution)."""
    return A.entry(0, 0) * A.entry(1, 1) - A.entry(0, 1) * A.entry(1, 0)


@dataclass(frozen=True)
class StripNormResult:
    value: float
    samples: int


def strip_norm(A: TrigPolyMatrix, B: TrigPolyMatrix, rho: float,
               points_per_dim: Optional[int] = None) -> StripNormResult:
    """sup over the strip |Im z_j| <= rho of the entrywise max of |A(z) - B(z)|.

    By the per-variable maximum principle the sup sits on the 2^d corner faces
    Im z = y with y_j = +-rho; those faces are sampled on a uniform grid,
    plus the real torus as a degenerate face, each evaluated as a
    polynomial on the real torus. The sample count is reported alongside.
    Each face is a points_per_dim^d grid, so past MAX_NODES nodes this raises
    ScanTooLarge before sampling. By default points_per_dim is 256, or the
    largest p with p^d <= STRIP_FACE_NODES when 256^d is more (40 at d = 3).
    """
    if A.rho < rho - 1e-12 or B.rho < rho - 1e-12:
        raise OutsideStrip(f"strip radius {rho} exceeds a declared budget")
    D = A - B
    d = A.d
    if points_per_dim is None:
        points_per_dim = 256
        while points_per_dim ** d > STRIP_FACE_NODES:
            points_per_dim -= 1
    X = grid(d, points_per_dim)
    best = 0.0
    ys = [np.zeros(d)] + [rho * (2.0 * np.array(signs) - 1.0)
                          for signs in np.ndindex(*(2,) * d)]
    for y in ys:
        # e^{2 pi i k.(x + iy)} = e^{-2 pi k.y} e^{2 pi i k.x}: the face is a
        # polynomial on the real torus with coefficients c_k e^{-2 pi k.y}
        scale = np.exp(-2.0 * math.pi * _dot(y.reshape(1, -1), D._ks))
        vals = _evaluate(X, D._ks, D._cs * scale[:, :, None], D._half)
        best = max(best, float(np.max(np.abs(vals))))
    return StripNormResult(value=best, samples=len(ys) * X.shape[0])


# ---------------------------------------------------------------------------
# Pointwise evaluators
# ---------------------------------------------------------------------------

class RenormalizedMatrix:
    """Pointwise x -> A(x)/|det A(x)|^{1/2}.

    Not a trig polynomial (|det|^{1/2} is not), so it only evaluates. Nodes
    with |det A(x)| below the floor are singular: batch evaluation marks them
    with NaN entries (the iterator treats NaN as underflow), single-point
    evaluation raises Singular.
    """

    def __init__(self, base, floor: float = UNDERFLOW_FLOOR):
        self.base = base
        self.floor = float(floor)
        self.d = base.d

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        vals = self.base.eval_many(X)
        det = det_2x2(vals)
        mag = np.abs(det)
        bad = mag < self.floor
        scale = np.where(bad, np.nan, 1.0 / np.sqrt(np.where(bad, 1.0, mag)))
        return vals * scale[:, None, None]

    def eval(self, x) -> np.ndarray:
        out = self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0]
        if not np.all(np.isfinite(out)):
            raise Singular(f"|det A(x)| < {self.floor} at x = {x}")
        return out


def _computes_unit_det(A: TrigPolyMatrix, det: TrigPoly) -> bool:
    """Whether RenormalizedMatrix computes det A(x) as exactly 1 at every x.

    det (det_scalar(A)) must be the constant 1, and each of e11 e22 and
    e12 e21 must have a zero factor or two real constant factors: a zero
    entry evaluates to 0, and a real constant entry to its coefficient, so
    the computed products and their difference round as det_scalar's own.
    Non-constant factors (a rotation's cos^2 + sin^2) need not give 1.
    """
    if det.coeffs != {(0,) * A.d: 1}:
        return False

    def real_constant(e: TrigPoly) -> bool:
        return all(not any(k) and c.imag == 0 for k, c in e.coeffs.items())

    return all(p.is_zero() or q.is_zero()
               or (real_constant(p) and real_constant(q))
               for p, q in ((A.entries[0], A.entries[3]),
                            (A.entries[1], A.entries[2])))


def renormalize(A, floor: float = UNDERFLOW_FLOOR):
    """Divide A pointwise by |det A|^{1/2}; result has |det| = 1 off zeros.

    A trig polynomial whose determinant computes to exactly 1 everywhere
    (every Schrodinger matrix) is returned as it is when floor <= 1: the
    division would change no bit. Anything else is wrapped in a
    RenormalizedMatrix.
    """
    if isinstance(A, TrigPolyMatrix):
        det = det_scalar(A)
        if det.is_zero():
            raise IdenticallySingular("det A is identically zero")
        if floor <= 1.0 and _computes_unit_det(A, det):
            return A
    return RenormalizedMatrix(A, floor=floor)


class DiscontinuityExample:
    """diag(e^{lam(x)}, e^{-lam(x)}) with lam(x) = e^{2 pi i k.x} e^{-2 pi sum(k)}.

    The entries are exponentials of a trig monomial, hence analytic but not
    polynomial; this is a pointwise evaluator. |lam| is the scale
    e^{-2 pi sum(k)}, so e^{+-lam} is finite at every x only while the scale
    is at most ln(DBL_MAX); past that the constructor raises OverflowError.
    """

    def __init__(self, k: Sequence[int]):
        kt = tuple(int(v) for v in k)
        if all(v == 0 for v in kt):
            raise ValueError("k must be nonzero")
        self.k = kt
        self.d = len(kt)
        exponent = -2.0 * math.pi * sum(kt)
        if exponent > math.log(LN_DBL_MAX):
            raise OverflowError(
                f"|lam| = e^(-2 pi sum(k)) = e^{exponent:.6g} exceeds "
                f"ln(DBL_MAX) = {LN_DBL_MAX:.6g}, so exp(lam) overflows")
        self.scale = math.exp(exponent)
        self._ks = np.array([kt], dtype=float)

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        lam = _upper_phases(_as_points(X), self._ks, 1)[0] * self.scale
        out = np.zeros((2, 2, lam.shape[0]), dtype=complex)
        out[0, 0] = np.exp(lam)
        out[1, 1] = np.exp(-lam)
        return out.transpose(2, 0, 1)

    def eval(self, x) -> np.ndarray:
        return self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0]


class ComposedMatrix:
    """(A o B)(x) = A(Bx) for an integer automorphism B, evaluated pointwise."""

    def __init__(self, base, B: Automorphism):
        if base.d != B.d:
            raise ValueError("dimension mismatch")
        self.base = base
        self.B = B
        self.d = base.d
        self._rows = B.as_array().astype(float)

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        """A(Bx) at the points X, or along an OrbitBlock: the base then
        gets a block of its own, the points y_j = frac(Bx_j) and the
        frequency B omega, as Bx_j moves by B omega, not omega (the block's
        own twiddles would be wrong for it). The error of its phases grows
        like that of _upper_phases, with |kB|_1 in place of |k|_1: a phase
        is within 2 pi |kB|_1 R 2^-52 + 2^-51 of exp(2 pi i k.y_j), R =
        PHASE_STEPS, plus 2 pi |k|_1 (5R/2 + 2) 2^-52 for the rounding of
        B x_j and B omega (test_composed_twiddles_within_the_kB_bound).
        B = identity evaluates with A's own bits."""
        pts = np.atleast_2d(np.asarray(X, dtype=float))
        # coordinate i of Bx is (row i of B).x
        Y = _frac(_dot(pts, self._rows).T)
        if isinstance(X, OrbitBlock):
            Y = OrbitBlock(Y, X.first, X.steps,
                           _dot(X.omega.reshape(1, -1), self._rows)[:, 0],
                           X.state.setdefault(id(self), {}))
        return self.base.eval_many(Y)

    def eval(self, x) -> np.ndarray:
        return self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0]


# ---------------------------------------------------------------------------
# Cocycles and iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cocycle:
    """The pair (A, omega) acting on C^2 x T^d."""

    A: object
    omega: Frequency

    def __post_init__(self):
        if self.A.d != self.omega.d:
            raise ValueError(
                f"A is defined on T^{self.A.d} but omega lives in T^{self.omega.d}")

    @property
    def d(self) -> int:
        return self.omega.d


@dataclass
class LogNormResult:
    """(1/N) ln ||A_N(x)||, -inf when the orbit was excised, and that flag."""

    log_norm_avg: float
    underflowed: bool


def _log_reads(norm: np.ndarray, term: np.ndarray,
               reads: Sequence[int]) -> np.ndarray:
    """(1/n) ln ||A_n|| of every node and read n from the parts that
    _iterate_chunk writes for its running product U = 2^-esum A_n, norm
    ||U|| and term (esum/n) ln 2: ln ||U||/n + term, in place of norm. The
    logs are taken here, on the calling thread once the workers are done,
    so no worker holds the interpreter lock for a Python loop of logs; they
    are math.log's (_util.log_in_place), so no SIMD log of numpy's enters
    the bits. An excised node has norm 1 and term -inf, so it
    reads -inf. A power-of-two constant reads exactly: diag(2, 1/2) keeps
    U = diag(1, 4^-n), whose norm computes to 1, and esum = n, so every n
    reads 0 + 1.0 * ln 2.
    """
    log_in_place(norm.reshape(-1))
    norm /= np.array(reads, dtype=float)[:, None]
    norm += term
    return norm


def _entry_exponents(mats: np.ndarray, b: int) -> list:
    """For each of the b steps of a stacked evaluation, the binary exponent
    e (np.frexp) of g, its largest entry modulus measured as the kernel's
    mx is (max(|re|, |im|)), so that g < 2^e."""
    g = np.abs(mats.real)
    if np.iscomplexobj(mats):
        np.maximum(g, np.abs(mats.imag), out=g)
    g = g.reshape(b, -1, 2, 2).max(axis=(1, 2, 3), initial=0.0)
    return np.frexp(g)[1].tolist()


def _stretch(mats: np.ndarray, t: int, c: int, U: np.ndarray, V: np.ndarray,
             S: np.ndarray, W: np.ndarray) -> bool:
    """The t products of a kernel stretch (mats, its t steps' stacked
    matrices) on U prescaled by 2^-c, with no renormalization between them,
    into S; U is left as it is and V is scratch. False when the prescale or
    a product rounded in the subnormal range, which IEEE 754 flags as
    underflow: the product in S is then not the per-step one times a power
    of two."""
    m = U.shape[2]
    # the first buffer is chosen so that the t-th product lands in S
    P, Q = (V, S) if t % 2 else (S, V)
    try:
        with np.errstate(under="raise"):
            np.multiply(U, math.ldexp(1.0, -c), out=P)
            for i in range(t):
                step_2x2(mats[i * m:(i + 1) * m], P, Q, W)
                P, Q = Q, P
    except FloatingPointError:
        return False
    return True


def _iterate_chunk(A, omega_vec: np.ndarray, reads: Sequence[int], X: np.ndarray,
                   norm: np.ndarray, term: np.ndarray) -> None:
    """The orbit-product kernel for a batch of m starting points X (m, d).

    It writes the parts of every read, norm and term (len(reads), m), in
    place; iterate_log_norm_many takes their logs once every chunk is done
    (_log_reads). The running products live in
    one (2, 2, m) array, entry-major with the nodes contiguous, so a step
    (_util.step_2x2) is a few elementwise operations on length-m arrays.
    They take the dtype of the first evaluation (at least float64), so a
    real cocycle (a float64 evaluation) runs in real arithmetic and any
    other in complex; an evaluator returns one dtype throughout. Where
    every imaginary part is zero, each complex product has the real part
    that float64 gives, so both run to the same bits.

    Renormalization is by powers of two. mx is a node's largest entry
    modulus (max(|re|, |im|) over the entries of a complex product) and e
    its binary exponent (np.frexp); the product is scaled by 2^(1 - e),
    which puts mx in [1, 2), and e - 1 is added to the node's integer esum.
    No norm and no log is taken between reads: at a read n, norm is ||U||
    and term (esum/n) ln 2, and the average log-norm is ln ||U||/n + term
    (_log_reads).

    Inside an evaluation block the kernel renormalizes once per stretch of
    t >= 2 steps (_stretch), with the bits of renormalizing after every
    step. A stretch ends at the next read, at the block's end and where
    G t + 1 would pass STRETCH_EXPONENT_CAP. g is the largest entry
    modulus of its matrices, measured as mx is, with binary exponent e
    (g < 2^e), and G = max(1, e + 1) for real entries (e + 2 for complex),
    so that 2^G > 2g (4g) bounds one step's growth of mx. The stretch runs
    its t products on U prescaled by 2^-(G t + 1) and is kept only when
    certified:
    - the prescale and the t products ran under np.errstate(under="raise")
      without a FloatingPointError, that is, no result rounded in the
      subnormal range (IEEE 754 raises underflow exactly when a tiny
      result is inexact);
    - at its end every node's mx is finite and at least UNDERFLOW_FLOOR.
    Scaling by a power of two commutes exactly with every product and sum
    whose result does not round in the subnormal range. The prescale keeps
    mx at step s of the stretch at most 2^(G (s - t)) <= 1, so at every step
    the stretch's product is an exact power of two, at most 1, times the
    renormalized per-step one, and no per-step renormalization could have
    rounded either. So the end's renormalization gives the per-step U and
    esum bit for bit, and each read at the end its bits. A per-step
    excision at step s would have left the end mx below
    UNDERFLOW_FLOOR 2^-G, and a non-finite value stays non-finite, so the
    end test keeps every -inf record; the cap (G <= 449 for t >= 2) keeps
    the prescale normal and every per-step product finite. A stretch that
    fails either test is rerun one step at a time from its start, which it
    left untouched, and a chunk that holds an excised node runs one step at
    a time. With one step per block (m > ORBIT_LOOKAHEAD_ROWS / 2) the
    loop makes the one-step calls and no others.

    reads is an increasing list of step counts; the orbit runs to the last
    one, and row r holds the read after reads[r] steps. Nothing before
    step n depends on how far the orbit goes, so row r is bit-identical to
    that of a reads[r]-step orbit. A node is excised at the first step
    whose product has mx below UNDERFLOW_FLOOR or not finite (an exactly
    zero product, a NaN from a singular evaluation): from then on it
    carries the identity, adds 0 to its esum and its term is -inf, so it
    reads -inf. A live node's read is finite, since its U has norm at
    least 1.

    Evaluation looks ahead: the orbit points of the next
    B = max(1, ORBIT_LOOKAHEAD_ROWS // m) steps are advanced first, by the same
    x -> frac(x + omega) sequence, and A is evaluated on all B*m of them in
    one eval_many call, as an OrbitBlock that also carries the block's
    first global step, omega and the chunk's phase state; step j then reads
    its m matrices as a slice of that entry-major evaluation. A trig
    polynomial's phases are exact at the global steps j = 0 mod
    PHASE_STEPS and twiddled between (_upper_phases), within
    2 pi |k|_1 PHASE_STEPS 2^-52 + 2^-51 of exp(2 pi i k.x_j), so the
    evaluations are not eval_many at the orbit points bit for bit (at
    omega = 0 they are). The rule goes by the global step and every
    evaluator works node by node, so stacking changes no bits, and a small
    chunk pays numpy's per-call cost of evaluation once per B steps instead
    of every step. From m = 4097 on B is 1: no stacking copy and no
    stretch. Each evaluation is dropped before the next is made, so a step
    never holds two.

    A step writes its product into the spare of two (2, 2, m) arrays and
    its second half-product and entry moduli into a third, and allocates
    only (m,) arrays; a stretch alternates between the spare and a fourth,
    S, and ends in S. map_chunked keeps m at most BLOCK_ROWS on one worker.
    """
    m, d = X.shape
    N = reads[-1]
    B = max(1, ORBIT_LOOKAHEAD_ROWS // max(m, 1))
    U = None  # made at the first evaluation, in its dtype
    # None until a node dies: no masking is needed
    dead = None
    esum = np.zeros(m, dtype=np.int64)
    r = 0
    pts = X
    phase_state: dict = {}
    for j0 in range(0, N, B):
        b = min(B, N - j0)
        block = [pts]
        for _ in range(1, b):
            pts = pts + omega_vec
            pts -= np.floor(pts)
            block.append(pts)
        mats = A.eval_many(OrbitBlock(np.concatenate(block) if b > 1 else pts,
                                      j0, b, omega_vec, phase_state))
        if U is None:
            U = np.zeros((2, 2, m), dtype=np.result_type(mats, float))
            U[0, 0] = U[1, 1] = 1.0
            V, W = np.empty_like(U), np.empty_like(U)
            # the float views: a complex node's real and imaginary parts
            # sit side by side, and W's rows are the four entries
            cplx = U.dtype.kind == "c"
            Uf, Vf, Wf = (a.view(float) for a in (U, V, W))
            W4 = Wf.reshape(4, -1)
            if B > 1:  # where a stretch ends, and then its start product
                S = np.empty_like(U)
                Sf = S.view(float)
            # 2^G >= 2g bounds a real step's growth, 4g a complex one's
            grow = 2 if cplx else 1
        gexp = _entry_exponents(mats, b) if b > 1 and dead is None else None
        k = 0
        plain = 0  # steps before this one rerun a failed stretch
        while k < b:
            j = j0 + k
            t = 1
            if gexp is not None and dead is None and k >= plain:
                # a stretch ends at the next read, at the block's end and
                # before G t + 1 passes the cap; G is at least the first
                # step's, so that bounds the window G is taken over
                t = min(b - k, reads[r] - j, (STRETCH_EXPONENT_CAP - 1)
                        // max(1, gexp[k] + grow))
                if t > 1:
                    G = max(1, max(gexp[k:k + t]) + grow)
                    t = min(t, (STRETCH_EXPONENT_CAP - 1) // G)
            if t > 1:
                c = G * t + 1
                if not _stretch(mats[k * m:(k + t) * m], t, c, U, V, S, W):
                    plain = k + t
                    continue
                # U holds the stretch's product, S its start
                U, S, Uf, Sf = S, U, Sf, Uf
            else:
                t = 1
                step_2x2(mats[k * m:(k + 1) * m], U, V, W)
                U, V, Uf, Vf = V, U, Vf, Uf
            np.abs(Uf, out=Wf)
            mx = np.maximum.reduce(W4, axis=0)
            if cplx:
                mx = np.maximum(mx[0::2], mx[1::2])
            # min and max propagate a NaN
            if dead is not None or not (
                    np.minimum.reduce(mx, initial=math.inf) >= UNDERFLOW_FLOOR
                    and np.maximum.reduce(mx, initial=0.0) < math.inf):
                if t > 1:
                    # not certified: back to the start, one step at a time
                    U, S, Uf, Sf = S, U, Sf, Uf
                    plain = k + t
                    continue
                ok = (mx >= UNDERFLOW_FLOOR) & (mx < math.inf)
                dead = ~ok if dead is None else dead | ~ok
                U[:, :, dead] = np.eye(2)[:, :, None]
                mx[dead] = 1.0  # the identity: shift 0
            shift = np.frexp(mx)[1]
            np.subtract(1, shift, out=shift)
            if cplx:
                # ldexp has no complex loop, and a product with the power
                # of two is just as exact
                U *= np.ldexp(1.0, shift)
            else:
                np.ldexp(U, shift, out=U)
            esum -= shift
            if t > 1:
                esum += c
            k += t
            if reads[r] == j + t:
                norm[r] = op_norm_2x2(U)
                np.multiply(esum / (j + t), LN2, out=term[r])
                if dead is not None:
                    term[r, dead] = -math.inf
                r += 1
        mats = block = None  # dropped before the next evaluation is made
        pts = pts + omega_vec
        pts -= np.floor(pts)


def iterate_log_norm_many(C: Cocycle, N: int, X: np.ndarray,
                          at: Optional[Sequence[int]] = None):
    """Averaged log-norms over a batch of starting points.

    Returns (avg, avg == -inf): avg[i] = (1/N) ln ||A_N(X[i])||, or -inf
    for a node excised because its running product degenerated (largest
    entry modulus below 1e-300 or non-finite). The package reads the -inf
    record; the derived flags stay because perfbench/layers.py counts
    excised nodes from them. X holds m nodes of T^d as an (m, d) array, or
    one node as its d coordinates; any other shape raises ValueError.

    With at, the N-step orbit is read at each step count n in at (each
    1 <= n <= N, in any order, repeats allowed), and avg has one row per
    entry: row r is bit for bit what N = at[r] returns.
    The orbit runs all N steps even when every n is smaller.

    The raw product is never formed: the running product is scaled by a
    power of two, exactly, after every step or, inside an evaluation block,
    once per stretch of steps that is certified to give the same bits: the
    stretch runs on the product prescaled by 2^-(G t + 1), G bounding a
    step's growth and G t + 1 at most STRETCH_EXPONENT_CAP, no product
    rounded in the subnormal range, and every node's largest entry modulus
    is finite and at least 1e-300 at its end, so it was at every step a
    power of two times the per-step product and no node died in it. The
    exponents
    are kept as an integer sum per node, and a read takes one norm per node
    in the workers and one math.log per node here, after they return
    (_iterate_chunk, _log_reads).
    A trig polynomial is evaluated with phases that are exact every
    _util.PHASE_STEPS global steps and twiddled between, each within
    2 pi |k|_1 PHASE_STEPS 2^-52 + 2^-51 of exp(2 pi i k.x_j) at the float
    orbit point (_upper_phases); at omega = 0 they are exact. So the bytes
    of a real cocycle's averages do not depend on numpy's SIMD dispatch,
    and a power-of-two constant such as diag(2, 1/2) reads exactly ln 2 at
    every N; other constants (3 I) agree across N to about an ulp.
    """
    want = [N] if at is None else [int(n) for n in at]
    if N < 1 or any(n < 1 for n in want):
        raise ValueError("N must be >= 1")
    if any(n > N for n in want):
        raise ValueError(f"read point beyond the orbit length {N}")
    reads = sorted(set(want) | {N})
    given = np.shape(X)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != C.d:
        raise ValueError(f"nodes of shape {given} are not points of T^{C.d}: "
                         f"expected shape (m, {C.d})")
    w = C.omega.as_array()
    # each block or chunk writes its own columns of the batch-wide parts
    norm = np.empty((len(reads), X.shape[0]))
    term = np.empty_like(norm)
    map_chunked(lambda rows: _iterate_chunk(C.A, w, reads, X[rows],
                                            norm[:, rows], term[:, rows]),
                X.shape[0])
    avg = _log_reads(norm, term, reads)
    avg = avg[-1] if at is None else avg[np.searchsorted(reads, want)]
    return avg, avg == -math.inf


def iterate_log_norm(C: Cocycle, N: int, x) -> LogNormResult:
    """(1/N) ln ||A_N(x, omega)|| at one point x: iterate_log_norm_many on one row.

    An excised orbit (zero or sub-1e-300 intermediate product) reads -inf;
    underflowed is derived from it and stays because perfbench/layers.py
    reads it.
    """
    avg = float(iterate_log_norm_many(C, N, np.reshape(x, (1, -1)))[0][0])
    return LogNormResult(log_norm_avg=avg, underflowed=avg == -math.inf)


# ---------------------------------------------------------------------------
# Standard constructors
# ---------------------------------------------------------------------------

def schrodinger(v, E: float, rho: float = 0.5, d: int = 1) -> TrigPolyMatrix:
    """[[E - v(x), -1], [1, 0]]; determinant identically 1."""
    vp = _as_poly(v, d if not isinstance(v, TrigPoly) else v.d)
    d = vp.d
    if not vp.is_real():
        raise ValueError("v must be real-valued on the torus")
    e11 = TrigPoly.constant(d, E) - vp
    return TrigPolyMatrix(e11, TrigPoly.constant(d, -1.0),
                          TrigPoly.constant(d, 1.0), TrigPoly(d, {}), rho)


def amo(lam: float, E: float, rho: float = 0.5) -> TrigPolyMatrix:
    """Almost Mathieu: schrodinger with v(x) = 2 lam cos(2 pi x)."""
    return schrodinger(TrigPoly.cosine((1,), 2.0 * lam), E, rho=rho)


def jacobi(v, a, E: float, omega: Frequency, rho: float = 0.5) -> TrigPolyMatrix:
    """[[E - v(x), -conj(a(x - omega))], [a(x), 0]]: jacobi_periodic with one
    site and zero background.

    The (1,2) entry is realized as a trig polynomial by conjugating the
    coefficients of a and phase-shifting by -omega.
    """
    return jacobi_periodic(v, a, (0.0,), E, omega, rho)


def jacobi_periodic(v, a, v_per: Sequence[float], E: float, omega: Frequency,
                    rho: float = 0.5) -> TrigPolyMatrix:
    """One period of Jacobi factors with background v_per(j), expanded.

    Site j in {1..q} contributes the factor at x + (j-1) omega with background
    v_per(j); the product runs j = q..1, and q = 1 with v_per = (0,) is
    jacobi(v, a, E, omega). Degree grows q-fold.

    The block spans q sites, so its cocycle is iterated over
    torus.frequency_multiple(omega, q), not omega; its exponent is then q
    times the per-site one.
    """
    q = len(v_per)
    if q < 1:
        raise ValueError("period q must be >= 1")
    d = omega.d
    ap = _as_poly(a, d)
    if ap.is_zero():
        raise IdenticallySingular("a is identically zero")
    vp = _as_poly(v, d)
    if not vp.is_real():
        raise ValueError("v must be real-valued on the torus")
    w = omega.as_array()
    prod: Optional[TrigPolyMatrix] = None
    for j in range(1, q + 1):
        t = _frac((j - 1) * w)
        factor = TrigPolyMatrix(
            TrigPoly.constant(d, E - float(v_per[j - 1])) - vp.shift(t),
            -(ap.shift(t - w).conjugate()),
            ap.shift(t),
            TrigPoly(d, {}),
            rho)
        prod = factor if prod is None else factor @ prod
    return prod
