"""Finite-scale Lyapunov exponents by quadrature over T^d.

Two scale families are computed: L'_N, the plain averaged log-norm of the
N-fold product, and L_N, the same quantity for the determinant-renormalized
cocycle. They are tied together by

    L_N = L'_N - (1/2) * integral of ln|det A(x)| dx,

which this module exposes as three independent computations (the two exponent
routes plus the determinant integral) so the identity stays checkable instead
of being true by construction.

sample_log_norms takes every sample of x -> (1/N) ln ||A_N(x)|| in the
package, for a list of scales from one orbit run to the largest; kept_mean
averages its surviving nodes. L_prime_N and L_N_renormalized are the
one-scale cases of le_table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._util import MAX_NODES, csv_text, det_2x2, grid, halton, pairwise_total
from .cocycle import (
    Cocycle,
    TrigPolyMatrix,
    det_scalar,
    iterate_log_norm_many,
    renormalize,
    strip_norm,
)
from .errors import AllSamplesSingular, IdenticallySingular, ScanTooLarge

DEFAULT_CLIP_FLOOR = math.exp(-700.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """A concrete discretization of the integral over T^d.

    kind "uniform-grid" uses the midpoint grid ((i + 1/2)/M per axis), which
    keeps log-singularities of the integrands off the nodes and stays closed
    under rational shifts p/q when q divides M. The other kinds fill the torus
    with Halton points or seeded uniform samples. Weights are always equal.
    """

    kind: str = "uniform-grid"
    points_per_dim: Optional[int] = None
    total_points: Optional[int] = None
    seed: int = 0
    clip_floor: float = DEFAULT_CLIP_FLOOR

    def __post_init__(self):
        if self.kind not in ("uniform-grid", "low-discrepancy", "monte-carlo"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if self.kind == "uniform-grid":
            if not self.points_per_dim or self.points_per_dim < 1:
                raise ValueError("uniform-grid needs points_per_dim >= 1")
        else:
            if not self.total_points or self.total_points < 1:
                raise ValueError(f"{self.kind} needs total_points >= 1")
        if self.clip_floor <= 0:
            raise ValueError("clip_floor must be positive")

    def count(self, d: int) -> int:
        if self.kind == "uniform-grid":
            return self.points_per_dim ** d
        return self.total_points

    def nodes(self, d: int) -> np.ndarray:
        n = self.count(d)
        if n > MAX_NODES:
            raise ScanTooLarge(f"{n} quadrature nodes exceeds guard {MAX_NODES}")
        if self.kind == "uniform-grid":
            return grid(d, self.points_per_dim, 0.5)
        if self.kind == "low-discrepancy":
            return halton(n, d)
        return np.random.default_rng(self.seed).random((n, d))


def default_quadrature(d: int) -> QuadratureSpec:
    if d == 1:
        return QuadratureSpec(kind="uniform-grid", points_per_dim=4096)
    if d == 2:
        return QuadratureSpec(kind="uniform-grid", points_per_dim=128)
    return QuadratureSpec(kind="low-discrepancy", total_points=65536)


def sample_log_norms(C: Cocycle, Ns: Sequence[int], X: np.ndarray,
                     renormalized: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """(avg, underflowed) of one orbit from the nodes X, read at each N in Ns
    (iterate_log_norm_many with at=Ns): row r is bit for bit what an
    Ns[r]-step orbit gives.

    renormalized=True iterates A/|det A|^{1/2} (L_N instead of L'_N). Raises
    AllSamplesSingular for the first N, in input order, with no survivor.
    """
    if renormalized:
        C = Cocycle(renormalize(C.A), C.omega)
    avg, under = iterate_log_norm_many(C, max(Ns), X, at=Ns)
    for N, u in zip(Ns, under):
        if u.all():
            raise AllSamplesSingular(f"all {u.size} nodes underflowed at N={N}")
    return avg, under


def kept_mean(kept: np.ndarray) -> float:
    """Mean of the surviving nodes' values, summed pairwise in a fixed order."""
    return pairwise_total(kept) / kept.size


@dataclass(frozen=True)
class LEEstimate:
    """One scale of le_table: the average log-norm value at N over the kept
    nodes and the node mass excised by underflow.

    stderr is the i.i.d. spread sqrt(var/m) of the m kept values. Grid and
    Halton nodes are not random, so it is no error bar for them. Against
    2^17- or 3*2^16-node references, almost Mathieu on 1024- and 4096-node
    midpoint grids had errors of at most 2.2e-16 where L_N is analytic in x,
    while stderr read 1.3e-5 to 4.6e-4; on or near the spectrum stderr
    overstated the error 15x to 280x.
    """
    N: int
    value: float
    excised_mass: float
    stderr: float = 0.0


def _mean_and_stderr(vals: np.ndarray) -> Tuple[float, float]:
    n = vals.size
    mean = kept_mean(vals)
    if n < 2:
        return mean, 0.0
    var = pairwise_total((vals - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)


def le_table(C: Cocycle, Ns: Sequence[int], quad: Optional[QuadratureSpec] = None,
             renormalized: bool = False) -> List[LEEstimate]:
    """One estimate per scale in Ns, in input order, from one sample_log_norms
    orbit. renormalized=True computes L_N instead of L'_N.

    Underflowed nodes (the product degenerated below 1e-300) are excised at
    every scale they died before, and the retained weights renormalized; the
    dropped fraction is reported as excised_mass.
    """
    Ns = list(Ns)
    if not Ns:
        return []
    quad = default_quadrature(C.d) if quad is None else quad
    X = quad.nodes(C.d)
    avg, under = sample_log_norms(C, Ns, X, renormalized)
    table = []
    for N, a, u in zip(Ns, avg, under):
        kept = a[~u]
        value, stderr = _mean_and_stderr(kept)
        table.append(LEEstimate(N=N, value=value, excised_mass=1.0 - kept.size / X.shape[0],
                                stderr=stderr))
    return table


def L_prime_N(C: Cocycle, N: int, quad: Optional[QuadratureSpec] = None) -> LEEstimate:
    """L'_N(A, omega): node average of (1/N) ln ||A_N(x)||; see le_table."""
    return le_table(C, [N], quad)[0]


def L_N_renormalized(C: Cocycle, N: int,
                     quad: Optional[QuadratureSpec] = None) -> LEEstimate:
    """L_N(A, omega): L'_N of the pointwise-renormalized cocycle A/|det A|^{1/2}.

    Computed by iterating the renormalized evaluator directly, not by
    correcting L'_N with the determinant integral; the two routes are compared
    in tests and experiments, never merged. See le_table.
    """
    return le_table(C, [N], quad, renormalized=True)[0]


@dataclass(frozen=True)
class DetLogIntegral:
    """Quadrature of ln|det A(x)| with explicit clipping accounting."""

    value: float
    clipped_mass: float
    nodes: int


def clipped_log_det(A, X: np.ndarray, floor: float) -> Tuple[np.ndarray, int]:
    """ln|det A(x)| at the nodes X, clipped below at ln(floor), and the number
    of nodes where the clip applied."""
    mag = np.abs(det_2x2(A.eval_many(X)))
    return np.log(np.maximum(mag, floor)), int(np.count_nonzero(mag < floor))


def det_log_integral(A, quad: Optional[QuadratureSpec] = None) -> DetLogIntegral:
    """Integral of ln|det A(x)| over T^d.

    The integrand is clipped below at ln(clip_floor) instead of excised: the
    singularity here is explicit and log-integrable, so clipping converges as
    the floor drops, and the clipped fraction is reported.
    """
    if isinstance(A, TrigPolyMatrix) and det_scalar(A).is_zero():
        raise IdenticallySingular("det A is identically zero")
    quad = default_quadrature(A.d) if quad is None else quad
    logs, clipped = clipped_log_det(A, quad.nodes(A.d), quad.clip_floor)
    return DetLogIntegral(value=pairwise_total(logs) / logs.size,
                          clipped_mass=clipped / logs.size, nodes=logs.size)


@dataclass(frozen=True)
class ExtrapolationResult:
    """L'_N along a scale schedule with Cauchy increments.

    The limit proxy is the final entry; increments |L_{N_{i+1}} - L_{N_i}| are
    the quality metric. No power-law extrapolation is attempted: subadditive
    sequences need not follow one.
    """

    table: List[LEEstimate]
    limit: float
    increments: List[float]


def le_extrapolate(C: Cocycle, schedule: Sequence[int],
                   quad: Optional[QuadratureSpec] = None) -> ExtrapolationResult:
    if len(schedule) < 1:
        raise ValueError("schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    table = le_table(C, [int(N) for N in schedule], quad)
    incs = [abs(b.value - a.value) for a, b in zip(table, table[1:])]
    return ExtrapolationResult(table=table, limit=table[-1].value, increments=incs)


@dataclass(frozen=True)
class ModulusRow:
    delta: float
    diff: float


@dataclass(frozen=True)
class ModulusTable:
    """Empirical finite-scale continuity: |L_N(A) - L_N(B)| against ||A-B||_rho."""

    N: int
    rows: List[ModulusRow]
    envelope: List[ModulusRow]


def finite_scale_modulus(C: Cocycle, N: int,
                         perturbations: Sequence[TrigPolyMatrix],
                         quad: Optional[QuadratureSpec] = None) -> ModulusTable:
    """Continuity table of the distance ||A-B||_rho against |L_N(A) - L_N(B)|.

    All perturbed matrices must share d and rho with A. The envelope is the
    running max of |diff| with rows sorted by distance, a monotone summary of
    the observed modulus.
    """
    A = C.A
    if not isinstance(A, TrigPolyMatrix):
        raise TypeError("finite_scale_modulus needs a trig-polynomial cocycle")
    base = L_N_renormalized(C, N, quad)
    rows: List[ModulusRow] = []
    for B in perturbations:
        if B.d != A.d:
            raise ValueError("perturbation dimension mismatch")
        if abs(B.rho - A.rho) > 1e-12:
            raise ValueError("perturbation rho mismatch")
        delta = strip_norm(A, B, rho=A.rho).value
        other = L_N_renormalized(Cocycle(B, C.omega), N, quad)
        rows.append(ModulusRow(delta=delta, diff=abs(base.value - other.value)))
    env: List[ModulusRow] = []
    running = 0.0
    for r in sorted(rows, key=lambda r: r.delta):
        running = max(running, r.diff)
        env.append(ModulusRow(delta=r.delta, diff=running))
    return ModulusTable(N=N, rows=rows, envelope=env)


def le_table_to_csv(rows: Sequence[LEEstimate]) -> str:
    """CSV with the fixed header N,value,excised_mass,stderr."""
    return csv_text(("N", "value", "excised_mass", "stderr"),
                    ((r.N, r.value, r.excised_mass, r.stderr) for r in rows))
