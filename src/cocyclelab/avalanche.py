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

from ._util import csv_text, det_2x2, op_norm_2x2, pairwise_total, step_2x2
from .cocycle import Cocycle, iterate_log_norm, iterate_log_norm_many
from .errors import ChainTooShort, NotDivisible, NotUnimodular

DET_TOL = 1e-9
# The default constants of the two checks: C of the interior bound C n / mu,
# and the window exponent C of mu < ||A_j|| < mu^C, which random chains fill.
INTERIOR_C = 10.0
WINDOW_EXPONENT = 101.0 / 99.0
# ap_ensemble hands _chain_terms blocks of at most AP_BLOCK chains, closed
# early once they hold AP_BLOCK_MATRICES matrices. A block shares the step
# loop's numpy dispatch among its chains, and its memory grows with it (a
# tracemalloc peak of about 270 bytes per matrix, the chains not counted), so
# the cap holds a block near 17 MiB when chains are long.
AP_BLOCK = 64
AP_BLOCK_MATRICES = 1 << 16


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
    det = det_2x2(mats)
    bad = ~(np.abs(det - 1.0) <= DET_TOL)  # a NaN determinant is bad too
    if bad.any():
        j = int(np.argmax(bad))
        d = det_2x2(mats[j].astype(complex))  # complex for either dtype
        raise NotUnimodular(f"matrix {j} has det {d}, not 1 within {DET_TOL}")
    return mats


def _chain_terms(chains) -> List[tuple]:
    """(n, v, w, logs) for each chain, in input order.

    v[j] = ln||A_j||, w[j] = ln||A_{j+1} A_j|| and logs[j] is the log-norm
    factor of the running product A_j...A_1 at step j. The running products
    of all chains advance together, one step j per loop iteration, by the
    orbit kernel's step _util.step_2x2 (which also gives w) on the chains
    longer than j: sorted longest first, they are a prefix of the (2, 2, k)
    products. Every value is bit-identical to running each chain alone.
    A block steps in its chains' dtype (complex128 if any chain is complex),
    and a real chain's values have the same bits either way.
    """
    stacks = [_validated(m) for m in chains]
    ns = np.array([m.shape[0] for m in stacks])
    starts = np.cumsum(ns) - ns
    allm = np.concatenate(stacks)
    v = np.log(op_norm_2x2(allm.transpose(1, 2, 0)))
    # pairs across a chain boundary are computed and never read
    pairs = np.empty((2, 2, len(allm) - 1), dtype=allm.dtype)
    w = np.log(step_2x2(allm[1:], allm[:-1].transpose(1, 2, 0), pairs)[0])
    order = np.argsort(-ns, kind="stable")
    lengths, first = ns[order].tolist(), starts[order]
    logs = np.empty(len(allm))
    # Running products with per-step renormalization; SL(2) norms are >= 1
    # so the accumulated factors cannot underflow.
    U = np.eye(2, dtype=allm.dtype)[:, :, None].repeat(len(stacks), axis=2)
    V = np.empty_like(U)
    live = len(stacks)
    for j in range(lengths[0]):
        while lengths[live - 1] <= j:
            live -= 1
        at = first[:live] + j
        s, _ = step_2x2(allm[at], U[:, :, :live], V[:, :, :live])
        U, V = V, U
        # math.log, not np.log: the vectorised log differs in the last bit
        # for some inputs
        logs[at] = [math.log(x) for x in s.tolist()]
        U[:, :, :live] *= 1.0 / s
    return [(n, v[a:a + n], w[a:a + n - 1], logs[a:a + n])
            for n, a in zip(ns.tolist(), starts.tolist())]


def _report(terms: tuple, variant: bool, C: float) -> APReport:
    """One chain's report: the all-j form if variant, else the interior."""
    n, v, w, logs = terms
    mu = float(np.exp(np.min(v)))
    # The telescoped grouping [chain - sum ln||A_j||] - [sum of gaps] equals
    # ln||P|| + (middle sums) - (pair sums) exactly in real arithmetic, and
    # cancels bitwise for identical chains where the naive three-term sum
    # leaves rounding residue.
    gaps = w - v[:-1] - v[1:]
    signed = (pairwise_total(logs) - pairwise_total(v)) - pairwise_total(gaps)
    max_gap = float(np.max(np.abs(gaps)))
    gap_ok = bool(max_gap <= 0.5 * math.log(mu))
    if not variant:
        return APReport(
            kind="interior", n=n, mu=mu, C=C,
            hypothesis_min_norm_ok=bool(mu > n), hypothesis_gap_ok=gap_ok,
            max_gap=max_gap, residual=abs(signed), bound=C * n / mu)
    # all-j middle sum = interior grouping + the two boundary terms
    signed = signed + v[0] + v[n - 1]
    window_ok = bool(mu > math.e and float(np.max(v)) < C * math.log(mu))
    return APReport(
        kind="all-j", n=n, mu=mu, C=C,
        hypothesis_min_norm_ok=window_ok, hypothesis_gap_ok=gap_ok,
        max_gap=max_gap, residual=abs(signed),
        bound=n / mu ** (1.0 / 3.0) + 4.0 * C * math.log(mu))


def ap_check(matrices, C_assumed: float = INTERIOR_C) -> APReport:
    """Interior-sum avalanche check with bound C_assumed * n / mu.

    mu is min_j ||A_j||; hypothesis flags record mu > n and
    max gap <= (1/2) ln mu. The residual is always reported, hypotheses or
    not.
    """
    return _report(_chain_terms([matrices])[0], False, C_assumed)


def ap_variant_check(matrices,
                     C_exponent: float = WINDOW_EXPONENT) -> APReport:
    """All-j-sum avalanche check with bound n/mu^{1/3} + 4*C_exponent*ln(mu).

    The middle sum runs over every j = 1..n, which shifts the residual by the
    two boundary log-norms relative to ap_check. The window hypothesis is
    mu < ||A_j|| < mu^C_exponent with mu = min_j ||A_j|| (so only the upper
    edge is informative) plus mu > e as a largeness proxy.
    """
    return _report(_chain_terms([matrices])[0], True, C_exponent)


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
    (l_n0, l_2n0), (u0, u1) = iterate_log_norm_many(C, 2 * N0, shifts,
                                                    at=(N0, 2 * N0))
    if u0.any() or u1.any():
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


def random_hyperbolic_chain(rng: np.random.Generator, n: int,
                            mu: float) -> np.ndarray:
    """n rotated diagonal SL(2,R) matrices R_theta diag(s, 1/s), as a
    float64 (n, 2, 2) stack.

    Norms land in (mu, mu^WINDOW_EXPONENT); rotation angles stay in
    [-1.2, 1.2] so consecutive products keep ln||A_{j+1}A_j|| within the gap
    hypothesis (cos 1.2 is comfortably above mu^{-1/2}).
    """
    lo, hi = math.log(mu), WINDOW_EXPONENT * math.log(mu)
    margin = 1e-6 * (hi - lo)
    s = np.exp(rng.uniform(lo + margin, hi - margin, size=n))
    theta = rng.uniform(-1.2, 1.2, size=n)
    ct, st = np.cos(theta), np.sin(theta)
    out = np.empty((n, 2, 2))
    out[:, 0, 0] = ct * s
    out[:, 0, 1] = -st / s
    out[:, 1, 0] = st * s
    out[:, 1, 1] = ct / s
    return out


def ap_ensemble(chains: int, seed: int = 0, mu: float = 1e3,
                n_max: int = 100, variant: bool = False) -> EnsembleResult:
    """Random hyperbolic chains through ap_check or ap_variant_check.

    Deterministic per seed. Bounds use INTERIOR_C for the interior form and
    WINDOW_EXPONENT for the all-j form. Chains are drawn one at a time
    (length, then matrices) and checked in blocks of up to AP_BLOCK chains.
    """
    rng = np.random.default_rng(seed)
    C = WINDOW_EXPONENT if variant else INTERIOR_C
    reports: List[APReport] = []
    block: List[np.ndarray] = []
    held = 0
    for i in range(chains):
        n = int(rng.integers(3, n_max + 1))
        block.append(random_hyperbolic_chain(rng, n, mu))
        held += n
        if len(block) == AP_BLOCK or held >= AP_BLOCK_MATRICES \
                or i == chains - 1:
            reports.extend(_report(terms, variant, C)
                           for terms in _chain_terms(block))
            block, held = [], 0
    ratios = [r.residual / r.bound for r in reports if r.bound > 0]
    worst = max(ratios) if ratios else 0.0
    return EnsembleResult(reports=reports, worst_ratio=worst,
                          all_within=bool(worst <= 1.0))


def ensemble_to_csv(reports: Sequence[APReport]) -> str:
    return csv_text(("n", "mu", "max_gap", "residual", "bound"),
                    ((r.n, r.mu, r.max_gap, r.residual, r.bound)
                     for r in reports))
