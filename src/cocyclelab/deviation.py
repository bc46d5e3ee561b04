"""Empirical statistics of the map x -> L_N(x).

Everything here samples the finite-scale exponent on integer grids i/M (DFT
convention, unlike the midpoint quadrature grids used for integrals) and
reports distributional facts: Fourier decay, measure of large-deviation sets,
measure of shift-difference sets, sublevel power laws, and L2 bounds. All
measures are grid fractions; nothing refines near singularities, so fractions
resolve to 1/M^d.

Sampling renormalizes the cocycle first by default, matching the convention
that the statistics concern the unit-determinant representative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._util import CSV_BLOCK, csv_text, det_2x2, dyadic_grid, pairwise_total
from .cocycle import Cocycle, TrigPoly, iterate_log_norm_many, renormalize
from .errors import IdenticallyZero
from .lyapunov import DEFAULT_CLIP_FLOOR, QuadratureSpec
from .torus import dist_to_Z

SENTINEL = -math.inf


def _sample(C: Cocycle, N: int, X: np.ndarray, renormalize_first: bool,
            at: Optional[Sequence[int]] = None):
    A = renormalize(C.A) if renormalize_first else C.A
    return iterate_log_norm_many(Cocycle(A, C.omega), N, X, at=at)


@dataclass
class Profile:
    """L_N(x) on the integer grid (i1,...,id)/M, in grid shape.

    Underflowed nodes hold the -inf sentinel with retained=False; mean and
    rms are over retained nodes only.
    """

    d: int
    M: int
    N: int
    values: np.ndarray
    retained: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.M,) * self.d:
            raise ValueError("values shape must be (M,)*d")

    @classmethod
    def from_values(cls, values: np.ndarray, N: int = 0) -> "Profile":
        values = np.asarray(values, dtype=float)
        return cls(d=values.ndim, M=values.shape[0], N=N, values=values,
                   retained=np.isfinite(values))

    @property
    def excised_mass(self) -> float:
        return 1.0 - float(np.count_nonzero(self.retained)) / self.values.size

    @property
    def mean(self) -> float:
        kept = self.values[self.retained]
        if kept.size == 0:
            return math.nan
        return pairwise_total(kept) / kept.size

    @property
    def rms(self) -> float:
        kept = self.values[self.retained]
        if kept.size == 0:
            return math.nan
        return math.sqrt(pairwise_total(kept ** 2) / kept.size)

    def clipped(self) -> Tuple[np.ndarray, float, int]:
        """(values clipped below at -T, T, clipped count); T = 2(rms + 10)."""
        T = 2.0 * (self.rms + 10.0)
        filled = np.where(self.retained, self.values, SENTINEL)
        clipped = np.maximum(filled, -T)
        return clipped, T, int(np.count_nonzero(filled < -T))


def _profiles(C: Cocycle, Ns: Sequence[int], M: int,
              renormalize_first: bool) -> List[Profile]:
    """One Profile per scale in Ns, all read from one orbit run to max(Ns)."""
    X = dyadic_grid(C.d, M)
    avg, under = _sample(C, max(Ns), X, renormalize_first, at=Ns)
    shape = (M,) * C.d
    return [Profile(d=C.d, M=M, N=N, values=np.where(u, SENTINEL, a).reshape(shape),
                    retained=~u.reshape(shape))
            for N, a, u in zip(Ns, avg, under)]


def profile(C: Cocycle, N: int, M: int, renormalize_first: bool = True) -> Profile:
    return _profiles(C, [N], M, renormalize_first)[0]


@dataclass(frozen=True)
class MeasureEstimate:
    """A grid-fraction estimate of one of the deviation-set measures."""

    threshold: float
    measured_fraction: float
    predicted_bound: Optional[float] = None
    parameters: Dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "measured_fraction": self.measured_fraction,
            "predicted_bound": self.predicted_bound,
            "parameters": dict(self.parameters),
        }


# ---------------------------------------------------------------------------
# Fourier decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierReport:
    """DFT of a (clipped) profile with the two decay functionals.

    tail_energy_times_K0 realizes sum_{|k|>K0} |coeff|^2 * K0 (max-norm |k|);
    max_k_weighted is max_{k != 0} |k| |coeff(k)| in one dimension, None
    otherwise. parseval_lhs/rhs restate the energy identity for inspection.
    """

    M: int
    d: int
    K0: int
    clip_level: float
    clipped_count: int
    k0_coeff: float
    parseval_lhs: float
    parseval_rhs: float
    tail_energy_times_K0: float
    max_k_weighted: Optional[float]
    ks: np.ndarray = field(repr=False, compare=False)
    coeffs: np.ndarray = field(repr=False, compare=False)


def fourier_coeffs(p: Profile, K0: int) -> FourierReport:
    if not (0 < K0 < p.M // 2):
        raise ValueError("need 0 < K0 < M/2")
    vals, T, nclip = p.clipped()
    coeffs = np.fft.fftn(vals) / vals.size
    freqs = ((np.arange(p.M) + p.M // 2) % p.M) - p.M // 2
    grids = np.meshgrid(*(freqs,) * p.d, indexing="ij")
    kmax = np.max(np.abs(np.stack(grids)), axis=0)
    energy = np.abs(coeffs) ** 2
    tail = float(np.sum(energy[kmax > K0]))
    if p.d == 1:
        nz = kmax > 0
        max_k_weighted = float(np.max(kmax[nz] * np.abs(coeffs[nz])))
    else:
        max_k_weighted = None
    return FourierReport(
        M=p.M, d=p.d, K0=K0, clip_level=T, clipped_count=nclip,
        k0_coeff=float(coeffs[(0,) * p.d].real),
        parseval_lhs=float(np.sum(energy)),
        parseval_rhs=float(np.mean(np.abs(vals) ** 2)),
        tail_energy_times_K0=tail * K0,
        max_k_weighted=max_k_weighted,
        ks=np.stack(grids, axis=-1), coeffs=coeffs)


# ---------------------------------------------------------------------------
# Deviation-set measures
# ---------------------------------------------------------------------------

def ldt_empirical(p: Profile, kappa: float) -> MeasureEstimate:
    """Fraction of retained nodes with |L_N(x) - mean| > kappa."""
    kept = p.values[p.retained]
    mean = p.mean
    frac = float(np.count_nonzero(np.abs(kept - mean) > kappa)) / kept.size
    return MeasureEstimate(threshold=kappa, measured_fraction=frac,
                           parameters={"N": p.N, "M": p.M, "mean": mean})


def cdt_empirical(C: Cocycle, N: int, a, kappa: float, M: int,
                  C_const: float = 1.0, renormalize_first: bool = True) -> MeasureEstimate:
    """Fraction of x with |L_N(x) - L_N(x+a)| > kappa, vs C kappa^{-3} |a|.

    |a| is the torus norm (sum of distances to Z per coordinate). The
    functional form of the bound is reported with the caller's constant; when
    it exceeds 1 the estimate is flagged vacuous but still computed.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    X = dyadic_grid(C.d, M)
    base, under0 = _sample(C, N, X, renormalize_first)
    shifted, under1 = _sample(C, N, (X + a) % 1.0, renormalize_first)
    keep = ~(under0 | under1)
    diffs = np.abs(base[keep] - shifted[keep])
    frac = float(np.count_nonzero(diffs > kappa)) / max(1, diffs.size)
    a_norm = float(np.sum(dist_to_Z(a)))
    bound = C_const * kappa ** (-3.0) * a_norm if kappa > 0 else math.inf
    return MeasureEstimate(
        threshold=kappa, measured_fraction=frac, predicted_bound=bound,
        parameters={"N": N, "M": M, "a_norm": a_norm, "C": C_const,
                    "vacuous": float(bound >= 1.0)})


def shift_drift_empirical(C: Cocycle, N: int, a_exponent: float, M: int,
                          C_const: float = 10.0,
                          renormalize_first: bool = True) -> MeasureEstimate:
    """Fraction of x violating |L_N(x) - L_N(x+omega)| <= C N^{-a}.

    Reported against the reference mass e^{-N^{1-a}} of the allowed bad set.
    """
    if not (0.0 < a_exponent < 1.0):
        raise ValueError("a_exponent must lie in (0, 1)")
    X = dyadic_grid(C.d, M)
    base, under0 = _sample(C, N, X, renormalize_first)
    shifted, under1 = _sample(C, N, (X + C.omega.as_array()) % 1.0,
                              renormalize_first)
    keep = ~(under0 | under1)
    thresh = C_const * N ** (-a_exponent)
    diffs = np.abs(base[keep] - shifted[keep])
    frac = float(np.count_nonzero(diffs > thresh)) / max(1, diffs.size)
    return MeasureEstimate(
        threshold=thresh, measured_fraction=frac,
        predicted_bound=math.exp(-N ** (1.0 - a_exponent)),
        parameters={"N": N, "M": M, "a_exponent": a_exponent, "C": C_const})


# ---------------------------------------------------------------------------
# Sublevel power law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LojFit:
    """Power-law fit |{|g| < t}| ~ S t^b over the resolvable regime."""

    S: float
    b: float
    estimates: List[MeasureEstimate]


def lojasiewicz_fit(g: TrigPoly, t_grid: Sequence[float], M: int) -> LojFit:
    if g.is_zero():
        raise IdenticallyZero("g is identically zero")
    ts = [float(t) for t in t_grid]
    if not ts or any(t <= 0 for t in ts):
        raise ValueError("t_grid must be positive")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly decreasing")
    X = dyadic_grid(g.d, M)
    mag = np.abs(g.eval_many(X))
    total = mag.size
    estimates = []
    for t in ts:
        frac = float(np.count_nonzero(mag < t)) / total
        estimates.append(MeasureEstimate(threshold=t, measured_fraction=frac,
                                         parameters={"M": M}))
    usable = [(t, m.measured_fraction) for t, m in zip(ts, estimates)
              if 0.0 < m.measured_fraction < 1.0]
    if len(usable) < 2:
        # nothing to regress against (e.g. |g| bounded away from zero);
        # fractions are still the deliverable
        return LojFit(S=math.nan, b=math.nan, estimates=estimates)
    lt = np.log([u[0] for u in usable])
    lm = np.log([u[1] for u in usable])
    b, logS = np.polyfit(lt, lm, 1)
    return LojFit(S=float(np.exp(logS)), b=float(b), estimates=estimates)


# ---------------------------------------------------------------------------
# Uniform L2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class L2Report:
    """RMS of L_N(x) per scale plus the RMS of ln|det A(x)|."""

    rows: List[Tuple[int, float, float]]   # (N, rms, excised_mass)
    det_rms: float
    ratio: float                            # max/min of the rms column
    growth_flagged: bool


def l2_uniform_check(C: Cocycle, N_list: Sequence[int], M: int,
                     renormalize_first: bool = True) -> L2Report:
    profiles = _profiles(C, [int(N) for N in N_list], M, renormalize_first)
    rows = [(p.N, p.rms, p.excised_mass) for p in profiles]
    # det rms is an integral statistic, so it uses midpoint nodes: the
    # integer grid can land on determinant zeros to machine precision and
    # the resulting ln^2 spikes make the value drift with M
    X = QuadratureSpec(points_per_dim=M).nodes(C.d)
    det = det_2x2(C.A.eval_many(X))
    logs = np.log(np.maximum(np.abs(det), DEFAULT_CLIP_FLOOR))
    det_rms = math.sqrt(float(np.mean(logs ** 2)))
    col = [r[1] for r in rows]
    ratio = max(col) / min(col) if min(col) > 0 else math.inf
    return L2Report(rows=rows, det_rms=det_rms, ratio=ratio,
                    growth_flagged=bool(ratio > 2.0))


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------

def coeffs_to_csv(report: FourierReport) -> str:
    ks = report.ks.reshape(-1, report.d)
    cs = report.coeffs.reshape(-1)
    order = np.lexsort(ks.T[::-1])

    def rows():
        # Python numbers, converted a block at a time: whole columns at once
        # would hold every row's objects until the end.
        # abs of each complex scalar: the vectorised np.abs(cs) can differ
        # from it in the last bit. Both call hypot; Python raises where numpy
        # overflows to inf.
        for start in range(0, order.size, CSV_BLOCK):
            idx = order[start:start + CSV_BLOCK]
            for k, c in zip(ks[idx].tolist(), cs[idx].tolist()):
                try:
                    mag = abs(c)
                except OverflowError:
                    mag = math.inf
                yield (*k, c.real, c.imag, mag)

    return csv_text([f"k{i + 1}" for i in range(report.d)]
                    + ["re", "im", "abs"], rows())
