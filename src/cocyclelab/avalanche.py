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

from ._util import csv_text, det_2x2, op_norm_2x2, pairwise_total
from .cocycle import Cocycle, iterate_log_norm, iterate_log_norm_many
from .errors import ChainTooShort, NotDivisible, NotUnimodular

DET_TOL = 1e-9


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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind, "n": self.n, "mu": self.mu, "C": self.C,
            "hypothesis_min_norm_ok": self.hypothesis_min_norm_ok,
            "hypothesis_gap_ok": self.hypothesis_gap_ok,
            "max_gap": self.max_gap, "residual": self.residual,
            "bound": self.bound, "satisfied": bool(self.residual <= self.bound),
        }


def _norms(mats: np.ndarray) -> np.ndarray:
    return op_norm_2x2(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])


def _chain_terms(matrices) -> tuple:
    mats = np.asarray(matrices, dtype=complex)
    if mats.ndim != 3 or mats.shape[1:] != (2, 2):
        raise ValueError("expected a stack of 2x2 matrices")
    n = mats.shape[0]
    if n < 3:
        raise ChainTooShort(f"need n >= 3 matrices, got {n}")
    det = det_2x2(mats)
    bad = np.abs(det - 1.0) > DET_TOL
    if bad.any():
        j = int(np.argmax(bad))
        raise NotUnimodular(f"matrix {j} has det {det[j]}, not 1 within {DET_TOL}")
    v = np.log(_norms(mats))
    w = np.log(_norms(mats[1:] @ mats[:-1]))
    # Running product with per-step renormalization; SL(2) norms are >= 1 so
    # the accumulated factors cannot underflow.
    U = np.eye(2, dtype=complex)
    logs = np.empty(n)
    for j in range(n):
        U = mats[j] @ U
        s = float(_norms(U[None])[0])
        logs[j] = math.log(s)
        U = U / s
    return n, v, w, logs


def _residual_parts(v: np.ndarray, w: np.ndarray, logs: np.ndarray) -> tuple:
    # The telescoped grouping [chain - sum ln||A_j||] - [sum of gaps] equals
    # ln||P|| + (middle sums) - (pair sums) exactly in real arithmetic, and
    # cancels bitwise for identical chains where the naive three-term sum
    # leaves rounding residue.
    gaps = w - v[:-1] - v[1:]
    chain_minus_self = pairwise_total(logs) - pairwise_total(v)
    gap_sum = pairwise_total(gaps)
    return gaps, chain_minus_self - gap_sum


def ap_check(matrices, C_assumed: float = 10.0) -> APReport:
    """Interior-sum avalanche check with bound C_assumed * n / mu.

    mu is min_j ||A_j||; hypothesis flags record mu > n and
    max gap <= (1/2) ln mu. The residual is always reported, hypotheses or
    not.
    """
    n, v, w, logs = _chain_terms(matrices)
    mu = float(np.exp(np.min(v)))
    gaps, signed = _residual_parts(v, w, logs)
    max_gap = float(np.max(np.abs(gaps)))
    return APReport(
        kind="interior", n=n, mu=mu, C=C_assumed,
        hypothesis_min_norm_ok=bool(mu > n),
        hypothesis_gap_ok=bool(max_gap <= 0.5 * math.log(mu)),
        max_gap=max_gap, residual=abs(signed), bound=C_assumed * n / mu)


def ap_variant_check(matrices, C_exponent: float = 101.0 / 99.0) -> APReport:
    """All-j-sum avalanche check with bound n/mu^{1/3} + 4*C_exponent*ln(mu).

    The middle sum runs over every j = 1..n, which shifts the residual by the
    two boundary log-norms relative to ap_check. The window hypothesis is
    mu < ||A_j|| < mu^C_exponent with mu = min_j ||A_j|| (so only the upper
    edge is informative) plus mu > e as a largeness proxy.
    """
    n, v, w, logs = _chain_terms(matrices)
    mu = float(np.exp(np.min(v)))
    gaps, signed = _residual_parts(v, w, logs)
    # all-j middle sum = interior grouping + the two boundary terms
    signed = signed + v[0] + v[n - 1]
    max_gap = float(np.max(np.abs(gaps)))
    window_ok = bool(mu > math.e and float(np.max(v)) < C_exponent * math.log(mu))
    return APReport(
        kind="all-j", n=n, mu=mu, C=C_exponent,
        hypothesis_min_norm_ok=window_ok,
        hypothesis_gap_ok=bool(max_gap <= 0.5 * math.log(mu)),
        max_gap=max_gap, residual=abs(signed),
        bound=n / mu ** (1.0 / 3.0) + 4.0 * C_exponent * math.log(mu))


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

    def to_json_dict(self) -> dict:
        return {
            "N0": self.N0, "N1": self.N1, "delta": self.delta, "C": self.C,
            "L_N0": self.L_N0, "L_2N0": self.L_2N0, "L_N1": self.L_N1,
            "hypothesis_flags": dict(self.hypothesis_flags),
            "hypotheses_ok": self.hypotheses_ok,
            "lhs": self.lhs, "rhs": self.rhs, "satisfied": self.satisfied,
        }


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
    if N1 % N0 != 0:
        raise NotDivisible(f"N0={N0} must divide N1={N1}")
    if N1 < N0:
        raise ValueError("N1 must be >= N0")
    x = np.asarray(x, dtype=float).reshape(-1)
    n = N1 // N0
    w = C.omega.as_array()
    shifts = (x[None, :] + np.arange(n + 1)[:, None] * (N0 * w)) % 1.0
    l_n0, u0 = iterate_log_norm_many(C, N0, shifts)
    l_2n0, u1 = iterate_log_norm_many(C, 2 * N0, shifts)
    if u0.any() or u1.any():
        raise ValueError("underflow along the orbit; renormalize the cocycle first")
    L_N0 = float(l_n0[0])
    L_2N0 = float(l_2n0[0])
    L_N1 = iterate_log_norm(C, N1, x).log_norm_avg
    drift0 = float(np.max(np.abs(l_n0[1:] - L_N0))) if n >= 1 else 0.0
    drift1 = float(np.max(np.abs(l_2n0[1:] - L_2N0))) if n >= 1 else 0.0
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


def random_hyperbolic_chain(rng: np.random.Generator, n: int, mu: float,
                            window_exponent: float = 101.0 / 99.0) -> np.ndarray:
    """n rotated diagonal SL(2,R) matrices R_theta diag(s, 1/s).

    Norms land in (mu, mu^window_exponent); rotation angles stay in
    [-1.2, 1.2] so consecutive products keep ln||A_{j+1}A_j|| within the gap
    hypothesis (cos 1.2 is comfortably above mu^{-1/2}).
    """
    lo, hi = math.log(mu), window_exponent * math.log(mu)
    margin = 1e-6 * (hi - lo)
    s = np.exp(rng.uniform(lo + margin, hi - margin, size=n))
    theta = rng.uniform(-1.2, 1.2, size=n)
    ct, st = np.cos(theta), np.sin(theta)
    out = np.zeros((n, 2, 2), dtype=complex)
    out[:, 0, 0] = ct * s
    out[:, 0, 1] = -st / s
    out[:, 1, 0] = st * s
    out[:, 1, 1] = ct / s
    return out


def ap_ensemble(chains: int, seed: int = 0, mu: float = 1e3,
                n_max: int = 100, variant: bool = False) -> EnsembleResult:
    """Random hyperbolic chains through ap_check or ap_variant_check.

    Deterministic per seed. Bounds use C=10 for the interior form and the
    norm-window exponent for the all-j form.
    """
    rng = np.random.default_rng(seed)
    reports: List[APReport] = []
    for _ in range(chains):
        n = int(rng.integers(3, n_max + 1))
        mats = random_hyperbolic_chain(rng, n, mu)
        if variant:
            reports.append(ap_variant_check(mats, C_exponent=101.0 / 99.0))
        else:
            reports.append(ap_check(mats, C_assumed=10.0))
    ratios = [r.residual / r.bound for r in reports if r.bound > 0]
    worst = max(ratios) if ratios else 0.0
    return EnsembleResult(reports=reports, worst_ratio=worst,
                          all_within=bool(worst <= 1.0))


def ensemble_to_csv(reports: Sequence[APReport]) -> str:
    return csv_text(("n", "mu", "max_gap", "residual", "bound"),
                    ((r.n, r.mu, r.max_gap, r.residual, r.bound)
                     for r in reports))
