"""Avalanche-principle checkers for chains of SL(2,C) matrices.

Two variants of the inequality are checked, differing in the middle sum and
the bound: the interior form

    |ln||A_n...A_1|| + sum_{j=2}^{n-1} ln||A_j|| - sum_{j=1}^{n-1} ln||A_{j+1}A_j|||
        < C n / mu,

valid when min_j ||A_j|| >= mu > n, and the windowed form with the middle sum
over all j = 1..n and bound n/mu^{1/3} + 4 C ln mu, valid when
mu < ||A_j|| < mu^C. Both also require the alignment hypothesis

    max_j |ln||A_j|| + ln||A_{j+1}|| - ln||A_{j+1}A_j||| <= (1/2) ln mu.

The absolute constants are not pinned anywhere; checkers take them as
parameters and the ensemble runner estimates empirical ceilings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ._util import (LOOKAHEAD_ROWS, MAX_NODES, csv_text, det_2x2,
                    log_in_place, op_norm_2x2, pairwise_totals, step_2x2)
from .cocycle import Cocycle, iterate_log_norm, iterate_log_norm_many
from .errors import ChainTooShort, NotDivisible, NotUnimodular, ScanTooLarge

DET_TOL = 1e-9
# The default constants of the two checks: C of the interior bound C n / mu,
# and the window exponent C of mu < ||A_j|| < mu^C, which random chains fill.
INTERIOR_C = 10.0
WINDOW_EXPONENT = 101.0 / 99.0
# An ap_ensemble block has room for min(AP_BLOCK * n_max, AP_BLOCK_MATRICES)
# matrices: AP_BLOCK chains of the longest length, up to a cap. A block's
# chain loop costs one step iteration per matrix of its longest chain,
# whatever its width, so the cost follows blocks x n_max. At its peak a
# block holds about 56 bytes per matrix (tracemalloc): its four float64
# entries and two float64 arrays over the block. Measured on a 2-core host
# for the benchmark's ensembles (600 chains, then 300 all-j chains, at
# n_max 100) and a long one (300 chains at n_max 1000), seed 1: blocks,
# in-process time (median of three runs' medians of 7; the host was noisy,
# so only large differences count) and tracemalloc peak.
#
#   caps              benchmark ensembles         long ensemble
#   64, 65536 before  15 blocks 0.129 s 0.82 MiB  5 blocks 0.240 s 6.68 MiB
#   64, 65536         8 blocks  0.054 s 0.59 MiB  3 blocks 0.167 s 3.35 MiB
#   120, 98304        5 blocks  0.082 s 0.79 MiB  2 blocks 0.189 s 5.04 MiB
#   240, 65536        3 blocks  0.070 s 1.29 MiB  3 blocks 0.255 s 3.43 MiB
#   240, 98304        3 blocks  0.067 s 1.29 MiB  2 blocks 0.156 s 5.04 MiB
#   240, 131072       3 blocks  0.050 s 1.29 MiB  2 blocks 0.147 s 6.75 MiB
#   unbounded         2 blocks  0.034 s 2.50 MiB  1 block  0.090 s 12.2 MiB
#
# ("before" is the per-chain report builder with blocks of at most 64
# chains.) The peak RSS of the chains-scans benchmark's first pass does not
# follow the tracemalloc peak but where glibc places the blocks: against
# "before" (medians of 6-8 fresh processes) AP_BLOCK 100, 120, 140, 160,
# 180, 200, 240 and 320 read +0.12, +0.21, +0.26, +0.07, +0.16, +0.10,
# -0.06 and +0.11 MiB on seed 1, and 240 read -0.10 and -0.04 MiB on seeds
# 2 and 3. AP_BLOCK_MATRICES 98304 keeps the long ensemble in 2 blocks,
# under the 6.7 MiB it took before.
AP_BLOCK = 240
AP_BLOCK_MATRICES = 3 << 15


@dataclass(frozen=True)
class APReport:
    kind: str                      # "interior" or "all-j"
    n: int
    mu: float
    C: float
    hypothesis_min_norm_ok: bool
    hypothesis_gap_ok: bool
    max_gap: float
    residual: float
    bound: float

    @property
    def hypotheses_ok(self) -> bool:
        return self.hypothesis_min_norm_ok and self.hypothesis_gap_ok


def _validated(matrices) -> np.ndarray:
    mats = np.asarray(matrices)
    mats = mats.astype(np.result_type(mats, float), copy=False)
    if mats.ndim != 3 or mats.shape[1:] != (2, 2):
        raise ValueError("expected a stack of 2x2 matrices")
    n = mats.shape[0]
    if n < 3:
        raise ChainTooShort(f"need n >= 3 matrices, got {n}")
    return mats


def _entries(mats: np.ndarray) -> tuple:
    """The four entries of an (n, 2, 2) stack, row-major, as views."""
    return mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]


def _block(chains) -> tuple:
    """(ns, E) of validated chains placed back to back: ns their lengths and
    E the four (T,) entry arrays of their T matrices, in the chains' dtype
    (complex128 if any chain is complex)."""
    stacks = [_validated(m) for m in chains]
    ns = np.array([m.shape[0] for m in stacks])
    return ns, tuple(map(np.concatenate, zip(*map(_entries, stacks))))


def _check_unimodular(ns: np.ndarray, E: tuple) -> None:
    """Raise NotUnimodular for the block's first matrix, in chain order,
    whose determinant is not 1 within DET_TOL, naming its index within its
    chain."""
    a, b, c, d = (e[:int(ns.sum())] for e in E)
    det = a * d   # det_2x2's a*d - b*c, in place
    det -= b * c
    det -= 1.0
    bad = ~(np.abs(det) <= DET_TOL)  # a NaN det is bad too
    if bad.any():
        j = int(np.argmax(bad))
        i = int(np.searchsorted(np.cumsum(ns), j, side="right"))
        mat = np.array([[a[j], b[j]], [c[j], d[j]]])
        det = det_2x2(mat.astype(complex))  # complex for either dtype
        raise NotUnimodular(f"matrix {j - int(ns[:i].sum())} has det {det}, "
                            f"not 1 within {DET_TOL}")


def _norm_terms(E: tuple, T: int) -> tuple:
    """(v, w) of the block's first T matrices, whose four entry arrays are
    E: v[j] = ln||A_j|| (T values) and w[j] = ln||A_{j+1} A_j|| (T - 1
    values; an entry that pairs one chain's last matrix with the next
    chain's first is computed and never read).

    They are computed LOOKAHEAD_ROWS matrices at a time, so every
    temporary stays small; each value has the bits of a whole-block call.
    The pairs are multiplied by the orbit kernel's _util.step_2x2, in E's
    dtype, and their norms taken by op_norm_2x2.
    """
    v = np.empty(T)
    w = np.empty(T - 1)
    rows = min(LOOKAHEAD_ROWS, T)
    # a slice of matrices, entry-major, with the next slice's first matrix
    X = np.empty((2, 2, rows + 1), dtype=E[0].dtype)
    P = np.empty((2, 2, rows), dtype=E[0].dtype)
    for i in range(0, T, rows):
        k = min(rows, T - i)
        pairs = min(k, T - 1 - i)
        for e, x in zip(E, X.reshape(4, -1)):
            x[:pairs + 1] = e[i:i + pairs + 1]
        np.log(op_norm_2x2(X[:, :, :k]), out=v[i:i + k])
        step_2x2(X[:, :, 1:pairs + 1].transpose(2, 0, 1), X[:, :, :pairs],
                 P[:, :, :pairs])
        np.log(op_norm_2x2(P[:, :, :pairs]), out=w[i:i + pairs])
    return v, w


def _product_logs(ns: np.ndarray, starts: np.ndarray, E: tuple) -> np.ndarray:
    """logs[j] is the log-norm factor of the running product A_j...A_1 at
    step j of its chain, for the chains of lengths ns placed at starts in
    the entry arrays E.

    The running products of all chains advance together, one step j per
    loop iteration, by the orbit kernel's step _util.step_2x2, and are
    divided by their op_norm_2x2 norms, which are kept. Sorted
    longest first, the chains longer than j are a prefix of the (2, 2, B)
    products. The chains past their end keep stepping by their last
    matrix, unread, so every step's arrays have the block's width: numpy
    caches small freed buffers by size, and a width per step would leave
    one set of them per width. Every value is bit-identical to running
    each chain alone. The block steps in E's dtype, and a real chain's
    values have the same bits either way.
    """
    order = np.argsort(-ns, kind="stable")
    lengths, first = ns[order].tolist(), starts[order]
    last = first + ns[order] - 1
    logs = np.empty(int(ns.sum()))   # the step norms, then their logs
    B = len(ns)
    at = np.empty(B, dtype=np.intp)
    G = np.empty((2, 2, B), dtype=E[0].dtype)   # step j's matrices
    # Running products with per-step renormalization; SL(2) norms are >= 1
    # so the accumulated factors cannot underflow.
    U = np.eye(2, dtype=G.dtype)[:, :, None].repeat(B, axis=2)
    V = np.empty_like(U)
    live = B
    for j in range(lengths[0]):
        while lengths[live - 1] <= j:
            live -= 1
        np.minimum(first + j, last, out=at)
        for e, g in zip(E, G.reshape(4, B)):
            np.take(e, at, out=g)
        step_2x2(G.transpose(2, 0, 1), U, V)
        U, V = V, U
        s = op_norm_2x2(U)
        logs[at[:live]] = s[:live]
        U *= 1.0 / s
    return log_in_place(logs)


def _block_reports(ns: np.ndarray, E: tuple, variant: bool,
                   C: float) -> List[APReport]:
    """The report of every chain of a block, in order: the all-j form if
    variant, else the interior. ns are the chains' lengths and E the four
    entry arrays of their matrices, back to back (each may run past the
    block's matrices, as a preallocated block does).

    Every field comes from one pass over the block: the sums are
    pairwise_totals over the chains' segments, mu and the maxima segmented
    reductions. The norms are reduced and dropped before the running
    products are taken, so the block holds at most two arrays of one
    float per matrix beside its entries.
    """
    _check_unimodular(ns, E)
    starts = np.cumsum(ns) - ns
    v, gaps = _norm_terms(E, int(ns.sum()))
    gaps -= v[:-1]
    gaps -= v[1:]
    sum_v = pairwise_totals(v, starts, ns)
    sum_gaps = pairwise_totals(gaps, starts, ns - 1)
    mu = np.exp(np.minimum.reduceat(v, starts)).tolist()
    np.abs(gaps, out=gaps)
    gaps[starts[1:] - 1] = -np.inf   # the pairs across chain boundaries
    max_gap = np.maximum.reduceat(gaps, starts).tolist()
    if variant:
        ends = v[starts], v[starts + ns - 1]
        top = np.maximum.reduceat(v, starts).tolist()
    del v, gaps
    logs = _product_logs(ns, starts, E)
    # The telescoped grouping [chain - sum ln||A_j||] - [sum of gaps] equals
    # ln||P|| + (middle sums) - (pair sums) exactly in real arithmetic, and
    # cancels bitwise for identical chains where the naive three-term sum
    # leaves rounding residue.
    signed = (pairwise_totals(logs, starts, ns) - sum_v) - sum_gaps
    if not variant:
        return [APReport(
                    kind="interior", n=n, mu=m, C=C,
                    hypothesis_min_norm_ok=m > n,
                    hypothesis_gap_ok=g <= 0.5 * math.log(m),
                    max_gap=g, residual=abs(r), bound=C * n / m)
                for n, m, g, r in zip(ns.tolist(), mu, max_gap,
                                      signed.tolist())]
    # all-j middle sum = interior grouping + the two boundary terms
    signed = signed + ends[0] + ends[1]
    return [APReport(
                kind="all-j", n=n, mu=m, C=C,
                hypothesis_min_norm_ok=m > math.e and t < C * math.log(m),
                hypothesis_gap_ok=g <= 0.5 * math.log(m),
                max_gap=g, residual=abs(r),
                bound=n / m ** (1.0 / 3.0) + 4.0 * C * math.log(m))
            for n, m, g, r, t in zip(ns.tolist(), mu, max_gap,
                                     signed.tolist(), top)]


def ap_check(matrices, C_assumed: float = INTERIOR_C) -> APReport:
    """Interior-sum avalanche check with bound C_assumed * n / mu.

    mu is min_j ||A_j||; hypothesis flags record mu > n and
    max gap <= (1/2) ln mu. The residual is always reported, hypotheses or
    not.
    """
    return _block_reports(*_block([matrices]), False, C_assumed)[0]


def ap_variant_check(matrices,
                     C_exponent: float = WINDOW_EXPONENT) -> APReport:
    """All-j-sum avalanche check with bound n/mu^{1/3} + 4*C_exponent*ln(mu).

    The middle sum runs over every j = 1..n, which shifts the residual by the
    two boundary log-norms relative to ap_check. The window hypothesis is
    mu < ||A_j|| < mu^C_exponent with mu = min_j ||A_j|| (so only the upper
    edge is informative) plus mu > e as a largeness proxy.
    """
    return _block_reports(*_block([matrices]), True, C_exponent)[0]


# ---------------------------------------------------------------------------
# Cocycle consequence: scale N0 controls scale N1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConsequenceReport:
    """Pointwise two-scale comparison |L_N1(x) + L_N0(x) - 2 L_2N0(x)|.

    hypothesis_flags uses opaque condition ids as keys; the claim (lhs < rhs)
    is only asserted when every hypothesis holds, otherwise satisfied is None.
    """

    N0: int
    N1: int
    delta: float
    C: float
    L_N0: float
    L_2N0: float
    L_N1: float
    hypothesis_flags: Dict[str, bool]
    lhs: float
    rhs: float

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypothesis_flags.values())

    @property
    def satisfied(self) -> Optional[bool]:
        if not self.hypotheses_ok:
            return None
        return bool(self.lhs < self.rhs)


def ap_consequence_check(C: Cocycle, x, N0: int, N1: int, delta: float,
                         C_const: float = 10.0) -> ConsequenceReport:
    """Check that scale-N0 data controls L_{N1}(x) for a unit-determinant cocycle.

    Hypotheses checked and reported as flags:
      eq:169  L_{N0}(x) > delta
      eq:170  |L_{N0}(x) - L_{2N0}(x)| < L_{N0}(x)/100
      eq:171  |L_N(x) - L_N(x + j N0 omega)| < delta/100 for N in {N0, 2N0}
              and every j = 1..N1/N0
    Conclusion compared: |L_{N1}(x) + L_{N0}(x) - 2 L_{2N0}(x)| against
    delta/20 + C_const |L_{N0}(x)| N0/N1.
    """
    if not 1 <= N0 <= N1:
        raise ValueError(f"need 1 <= N0 <= N1, got N0={N0}, N1={N1}")
    if N1 % N0 != 0:
        raise NotDivisible(f"N0={N0} must divide N1={N1}")
    x = np.asarray(x, dtype=float).reshape(-1)
    n = N1 // N0
    w = C.omega.as_array()
    shifts = (x[None, :] + np.arange(n + 1)[:, None] * (N0 * w)) % 1.0
    (l_n0, l_2n0), _ = iterate_log_norm_many(C, 2 * N0, shifts, at=(N0, 2 * N0))
    if not (np.isfinite(l_n0).all() and np.isfinite(l_2n0).all()):
        raise ValueError("underflow along the orbit; renormalize the cocycle first")
    L_N0 = float(l_n0[0])
    L_2N0 = float(l_2n0[0])
    L_N1 = iterate_log_norm(C, N1, x).log_norm_avg
    drift0 = float(np.max(np.abs(l_n0[1:] - L_N0)))
    drift1 = float(np.max(np.abs(l_2n0[1:] - L_2N0)))
    flags = {
        "eq:169": bool(L_N0 > delta),
        "eq:170": bool(abs(L_N0 - L_2N0) < L_N0 / 100.0),
        "eq:171": bool(max(drift0, drift1) < delta / 100.0),
    }
    lhs = abs(L_N1 + L_N0 - 2.0 * L_2N0)
    rhs = delta / 20.0 + C_const * abs(L_N0) * N0 / N1
    return ConsequenceReport(N0=N0, N1=N1, delta=delta, C=C_const,
                             L_N0=L_N0, L_2N0=L_2N0, L_N1=L_N1,
                             hypothesis_flags=flags, lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleResult:
    reports: List[APReport]
    worst_ratio: float     # max residual/bound over the ensemble
    all_within: bool


def _draw_chain(rng: np.random.Generator, n: int, mu: float, out) -> None:
    """Draw random_hyperbolic_chain's n matrices into out, its four entry
    arrays (row-major), each of length n."""
    lo, hi = math.log(mu), WINDOW_EXPONENT * math.log(mu)
    margin = 1e-6 * (hi - lo)
    s = np.exp(rng.uniform(lo + margin, hi - margin, size=n))
    theta = rng.uniform(-1.2, 1.2, size=n)
    ct, st = np.cos(theta), np.sin(theta)
    a, b, c, d = out
    np.multiply(ct, s, out=a)
    np.divide(-st, s, out=b)
    np.multiply(st, s, out=c)
    np.divide(ct, s, out=d)


def random_hyperbolic_chain(rng: np.random.Generator, n: int,
                            mu: float) -> np.ndarray:
    """n rotated diagonal SL(2,R) matrices R_theta diag(s, 1/s), as a
    float64 (n, 2, 2) stack.

    Norms land in (mu, mu^WINDOW_EXPONENT); rotation angles stay in
    [-1.2, 1.2] so consecutive products keep ln||A_{j+1}A_j|| within the gap
    hypothesis (cos 1.2 is comfortably above mu^{-1/2}).
    """
    out = np.empty((n, 2, 2))
    _draw_chain(rng, n, mu, _entries(out))
    return out


def ap_ensemble(chains: int, seed: int = 0, mu: float = 1e3,
                n_max: int = 100, variant: bool = False) -> EnsembleResult:
    """Random hyperbolic chains through ap_check or ap_variant_check.

    Deterministic per seed. Bounds use INTERIOR_C for the interior form and
    WINDOW_EXPONENT for the all-j form. Chains are drawn one at a time
    (length, then matrices), each straight into the entry arrays of a block
    with room for min(AP_BLOCK * n_max, AP_BLOCK_MATRICES) matrices (at
    least n_max, and no more than the chains need); a chain that would
    overflow it starts the next block. Each block's reports come from one
    _block_reports pass. chains, n_max and mu are checked before any draw:
    mu must exceed 1 and keep 2 mu^(2 WINDOW_EXPONENT), the scale of a pair
    product's norm terms, finite (mu below about 8.47e150), and
    chains * n_max may not exceed _util.MAX_NODES matrices (ScanTooLarge).
    """
    if chains < 1:
        raise ValueError(f"chains must be at least 1, got {chains}")
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    if not mu > 1.0:
        raise ValueError(f"mu must exceed 1, got {mu}")
    with np.errstate(over="ignore"):
        top = 2.0 * np.float64(mu) ** (2 * WINDOW_EXPONENT)
    if not np.isfinite(top):
        raise ValueError(f"mu must keep 2 mu^(2 WINDOW_EXPONENT) finite "
                         f"(mu below about 8.47e150), got {mu}")
    if chains * n_max > MAX_NODES:
        raise ScanTooLarge(f"{chains} chains of up to {n_max} matrices exceed "
                           f"the guard of {MAX_NODES} matrices")
    rng = np.random.default_rng(seed)
    C = WINDOW_EXPONENT if variant else INTERIOR_C
    cap = min(chains * n_max,
              max(n_max, min(AP_BLOCK_MATRICES, AP_BLOCK * n_max)))
    E = tuple(np.empty(cap) for _ in range(4))
    reports: List[APReport] = []
    ns: List[int] = []
    held = 0
    for _ in range(chains):
        n = int(rng.integers(3, n_max + 1))
        if held + n > cap:
            reports += _block_reports(np.array(ns), E, variant, C)
            ns, held = [], 0
        _draw_chain(rng, n, mu, [e[held:held + n] for e in E])
        ns.append(n)
        held += n
    reports += _block_reports(np.array(ns), E, variant, C)
    ratios = [r.residual / r.bound for r in reports if r.bound > 0]
    worst = max(ratios) if ratios else 0.0
    return EnsembleResult(reports=reports, worst_ratio=worst,
                          all_within=bool(worst <= 1.0))


def ensemble_to_csv(reports: Sequence[APReport]) -> str:
    return csv_text(("n", "mu", "max_gap", "residual", "bound"),
                    ((r.n, r.mu, r.max_gap, r.residual, r.bound)
                     for r in reports))
