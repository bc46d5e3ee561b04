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

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._svg import line_plot, plot_csv_text
from ._util import CSV_BLOCK, csv_text, dyadic_grid, pairwise_total
# iterate_log_norm_many: not called here; perfbench/tracer.py wraps it by name
from .cocycle import Cocycle, TrigPoly, iterate_log_norm_many
from .errors import AllSamplesSingular, IdenticallyZero
from .lyapunov import (DEFAULT_CLIP_FLOOR, QuadratureSpec, clipped_log_det,
                       kept_mean, sample_log_norms)
from .torus import dist_to_Z


def _shift_diffs(C: Cocycle, N: int, M: int, shifts,
                 renormalize_first: bool) -> List[np.ndarray]:
    """|L_N(x) - L_N(x + a)| for each shift a, over the grid nodes x where
    the difference is finite, that is where neither orbit was excised (read
    -inf); raises AllSamplesSingular for the first shift, in order, with no
    such node.

    The grid and each shifted grid run one orbit per node, two grids (2m
    rows) per batch: the grid with the first shift, then the other shifts
    in pairs. Each node's orbit is independent of the rest of its batch, so
    its bits are those of separate calls. A batch whose 2m orbits all
    underflowed raises sample_log_norms's "all 2m nodes" message.
    """
    X = dyadic_grid(C.d, M)
    m = X.shape[0]
    grids = itertools.chain([X], ((X + a) % 1.0 for a in shifts))
    base = None
    diffs = []
    while batch := list(itertools.islice(grids, 2)):
        (L,) = sample_log_norms(C, [N], np.concatenate(batch), renormalize_first)
        for i in range(0, len(L), m):
            if base is None:
                base = L[:m]
                continue
            with np.errstate(invalid="ignore"):  # -inf - -inf is nan
                diff = np.abs(base - L[i:i + m])
            diff = diff[np.isfinite(diff)]
            if not diff.size:
                raise AllSamplesSingular(f"all {m} node pairs underflowed at N={N}")
            diffs.append(diff)
    return diffs


@dataclass
class Profile:
    """L_N(x) on the integer grid (i1,...,id)/M, in grid shape.

    An excised node reads -inf (sample_log_norms); mean and rms are over the
    retained (finite) nodes only, and a profile needs at least one.
    """

    d: int
    M: int
    N: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.M,) * self.d:
            raise ValueError("values shape must be (M,)*d")
        if not self.retained.any():
            raise AllSamplesSingular(f"profile at N={self.N} has no finite value")

    @classmethod
    def from_values(cls, values: np.ndarray, N: int = 0) -> "Profile":
        """Every non-finite value (nan, +-inf) becomes -inf, an excised node."""
        values = np.asarray(values, dtype=float)
        values = np.where(np.isfinite(values), values, -math.inf)
        return cls(d=values.ndim, M=values.shape[0], N=N, values=values)

    @property
    def retained(self) -> np.ndarray:
        return np.isfinite(self.values)

    @property
    def excised_mass(self) -> float:
        return 1.0 - float(np.count_nonzero(self.retained)) / self.values.size

    @property
    def mean(self) -> float:
        return kept_mean(self.values[self.retained])

    @property
    def rms(self) -> float:
        return math.sqrt(kept_mean(self.values[self.retained] ** 2))

    def clipped(self) -> Tuple[np.ndarray, float, int]:
        """(values clipped below at -T, T, clipped count); T = 2(rms + 10)."""
        T = 2.0 * (self.rms + 10.0)
        return (np.maximum(self.values, -T), T,
                int(np.count_nonzero(self.values < -T)))


def _profiles(C: Cocycle, Ns: Sequence[int], M: int,
              renormalize_first: bool) -> List[Profile]:
    """One Profile per scale in Ns, all read from one orbit run to max(Ns).

    Raises AllSamplesSingular when every node underflowed at some scale.
    """
    avg = sample_log_norms(C, Ns, dyadic_grid(C.d, M), renormalize_first)
    return [Profile(d=C.d, M=M, N=N, values=a.reshape((M,) * C.d))
            for N, a in zip(Ns, avg)]


def profile(C: Cocycle, N: int, M: int, renormalize_first: bool = True) -> Profile:
    return _profiles(C, [N], M, renormalize_first)[0]


@dataclass(frozen=True)
class MeasureEstimate:
    """A grid-fraction estimate of one of the deviation-set measures."""

    threshold: float
    measured_fraction: float
    predicted_bound: Optional[float] = None
    parameters: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Fourier decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierReport:
    """One-sided DFT of a (clipped) profile with the two decay functionals.

    A profile is real, so coeff(-k) = conj(coeff(k)), and coeffs is
    np.fft.rfftn's half table, one coefficient per +- pair: shape
    (M,)*(d-1) + (M//2 + 1,), the first d-1 axes in FFT order and the last
    k_d = 0..M//2. The sums over all k weight the columns k_d = 0 and (M
    even) k_d = M/2, which hold both members of their pairs, once and every
    other column twice.

    tail_energy_times_K0 realizes sum_{|k|>K0} |coeff|^2 * K0 (max-norm |k|);
    max_k_weighted is max_{k != 0} |k| |coeff(k)| in one dimension, None
    otherwise. parseval_lhs/rhs restate the energy identity for inspection.
    |coeff|^2 is re^2 + im^2, in float64 ufuncs.
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
    coeffs: np.ndarray = field(repr=False, compare=False)


def fourier_coeffs(p: Profile, K0: int) -> FourierReport:
    if not (0 < K0 < p.M // 2):
        raise ValueError("need 0 < K0 < M/2")
    vals, T, nclip = p.clipped()
    coeffs = np.fft.rfftn(vals) / vals.size
    freqs = ((np.arange(p.M) + p.M // 2) % p.M) - p.M // 2
    half = np.arange(p.M // 2 + 1)
    kmax = functools.reduce(np.maximum,
                            np.ix_(*[np.abs(freqs)] * (p.d - 1), half))
    energy = coeffs.real ** 2 + coeffs.imag ** 2
    weighted = energy * np.where((half == 0) | (2 * half == p.M), 1.0, 2.0)
    if p.d == 1:
        max_k_weighted = float(np.max(half[1:] * np.sqrt(energy[1:])))
    else:
        max_k_weighted = None
    return FourierReport(
        M=p.M, d=p.d, K0=K0, clip_level=T, clipped_count=nclip,
        k0_coeff=float(coeffs[(0,) * p.d].real),
        parseval_lhs=float(np.sum(weighted)),
        parseval_rhs=float(np.mean(np.abs(vals) ** 2)),
        tail_energy_times_K0=float(np.sum(weighted[kmax > K0])) * K0,
        max_k_weighted=max_k_weighted, coeffs=coeffs)


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
    return cdt_empirical_many(C, N, [a], kappa, M, C_const,
                              renormalize_first)[0]


def cdt_empirical_many(C: Cocycle, N: int, shifts, kappa: float, M: int,
                       C_const: float = 1.0,
                       renormalize_first: bool = True) -> List[MeasureEstimate]:
    """cdt_empirical for each shift a in shifts, in order, with the grid's
    orbits run once for all of them: (1 + len(shifts)) m orbits on m nodes.
    Each estimate is bit for bit the one cdt_empirical gives."""
    shifts = [np.asarray(a, dtype=float).reshape(-1) for a in shifts]
    out = []
    for a, diffs in zip(shifts, _shift_diffs(C, N, M, shifts,
                                              renormalize_first)):
        frac = float(np.count_nonzero(diffs > kappa)) / diffs.size
        a_norm = float(np.sum(dist_to_Z(a)))
        bound = C_const * kappa ** (-3.0) * a_norm if kappa > 0 else math.inf
        out.append(MeasureEstimate(
            threshold=kappa, measured_fraction=frac, predicted_bound=bound,
            parameters={"N": N, "M": M, "a_norm": a_norm, "C": C_const,
                        "vacuous": float(bound >= 1.0)}))
    return out


def shift_drift_empirical(C: Cocycle, N: int, a_exponent: float, M: int,
                          C_const: float = 10.0,
                          renormalize_first: bool = True) -> MeasureEstimate:
    """Fraction of x violating |L_N(x) - L_N(x+omega)| <= C N^{-a}.

    Reported against the reference mass e^{-N^{1-a}} of the allowed bad set.
    """
    if not (0.0 < a_exponent < 1.0):
        raise ValueError("a_exponent must lie in (0, 1)")
    (diffs,) = _shift_diffs(C, N, M, [C.omega.as_array()],
                            renormalize_first)
    thresh = C_const * N ** (-a_exponent)
    frac = float(np.count_nonzero(diffs > thresh)) / diffs.size
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
    # least-squares line ln m = ln S + b ln t in closed form, every sum
    # pairwise, so that no BLAS or LAPACK call can move its bits
    lt = np.log([u[0] for u in usable])
    lm = np.log([u[1] for u in usable])
    mean_t = pairwise_total(lt) / lt.size
    mean_m = pairwise_total(lm) / lm.size
    dt = lt - mean_t
    b = pairwise_total(dt * (lm - mean_m)) / pairwise_total(dt * dt)
    logS = mean_m - b * mean_t
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
    logs, _ = clipped_log_det(C.A, X, DEFAULT_CLIP_FLOOR)
    det_rms = math.sqrt(float(np.mean(logs ** 2)))
    col = [r[1] for r in rows]
    ratio = max(col) / min(col) if min(col) > 0 else math.inf
    return L2Report(rows=rows, det_rms=det_rms, ratio=ratio,
                    growth_flagged=bool(ratio > 2.0))


# ---------------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------------

def coeffs_to_csv(report: FourierReport) -> str:
    """CSV of the one-sided table in k order: k1..kd, re, im.

    One row per coefficient of report.coeffs, M^(d-1) (M//2 + 1) rows; the
    partner -k of a row is not written, its coefficient is the conjugate.
    np.fft.fftshift over the first d-1 axes puts their k in ascending order
    from -M//2, for even and odd M, and k_d runs 0..M//2, so k order is
    row-major order. The rows go to csv_text a CSV_BLOCK at a time, as
    numpy columns: the block's k from its flat positions in the table's
    shape, and the real and imaginary parts.
    """
    shape = report.coeffs.shape
    cs = np.fft.fftshift(report.coeffs, axes=tuple(range(report.d - 1)))
    cs = cs.reshape(-1)
    lows = [-(report.M // 2)] * (report.d - 1) + [0]

    def blocks():
        for start in range(0, cs.size, CSV_BLOCK):
            c = cs[start:start + CSV_BLOCK]
            ks = np.unravel_index(np.arange(start, start + c.size), shape)
            yield [*(k + low for k, low in zip(ks, lows)), c.real, c.imag]

    return csv_text([f"k{i + 1}" for i in range(report.d)] + ["re", "im"],
                    blocks=blocks())


def plot_coeffs_csv(csv_body: str, title: str = "",
                    comment: Optional[str] = None) -> str:
    """The SVG of a coeffs_to_csv table (plot: true on fourier).

    For d = 1 it is plot_csv_text's: re against k1. For d >= 2 the rows
    are a grid of indices, so it plots, for each shell r = |k|_inf =
    0..M/2, the largest |c_k| on it, with |c| = sqrt(re^2 + im^2) in
    float64 ufuncs (no libm hypot). The %.17g cells read back as the
    table's own doubles. A shell whose largest modulus is not finite is
    left out, as plot_csv_text leaves out a non-finite row.
    """
    lines = [ln for ln in csv_body.splitlines()
             if ln and not ln.startswith("#")]
    d = len(lines[0].split(",")) - 2
    if d == 1:
        return plot_csv_text(csv_body, title=title, comment=comment)
    table = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    shell = np.abs(table[:, :d]).max(axis=1).astype(np.int64)
    re, im = table[:, d], table[:, d + 1]
    top = np.full(int(shell.max()) + 1, -np.inf)
    np.maximum.at(top, shell, np.sqrt(re * re + im * im))
    keep = np.isfinite(top)
    return line_plot(np.flatnonzero(keep).tolist(), top[keep].tolist(),
                     xlabel="max_i |k_i|", ylabel="max |c_k|", title=title,
                     comment=comment)
