"""Closed-form oracles: finite-scale exponents pinned to theory.

Each test bounds L'_N, the node average of (1/N) ln ||A_N(x)||, by a value
known in closed form, with a tolerance derived from N and the quadrature,
and runs within a runtime budget.

- Herman's bound (Comment. Math. Helv. 58, 1983). For v = 2 lam cos(2 pi x_1)
  the N-step product of the Schrodinger cocycle is a Laurent polynomial in
  q = e^{2 pi i x_1} with top coefficient of norm lam^N, so by
  subharmonicity the integral of (1/N) ln ||A_N|| is at least ln lam for
  every N, every E and every frequency vector.
- Jensen's formula for upper-triangular M(2,C) cocycles, including singular
  ones: L = max(int ln|a|, int ln|d|), with
  int ln|alpha + beta e^{2 pi i x}| dx = ln max(|alpha|, |beta|).
"""
import math
import time

import numpy as np
import pytest

from cocyclelab.cocycle import (
    Cocycle,
    TrigPoly,
    TrigPolyMatrix,
    amo,
    iterate_log_norm_many,
    schrodinger,
)
from cocyclelab.lyapunov import L_prime_N, QuadratureSpec, le_table
from cocyclelab.torus import Frequency

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0
BUDGET_S = 10.0
EPS = 1e-12   # rounding of N renormalized steps and of the node average


def _herman_tols(C: Cocycle, Ns, M: int) -> list:
    """Quadrature tolerance of the M-point midpoint rule in x_1, per N.

    Koksma's inequality bounds the error of a rule with star discrepancy
    1/(2M) by V/(2M), V the total variation of the integrand, here
    x_1 -> (1/N) ln ||A_N(x)|| around the circle. Its variation on the grid
    can only undershoot V, so it is doubled. The integrands here do not
    depend on x_2.., so the d-dimensional grid is the 1-d rule; the largest
    variation over the other coordinates is taken all the same.
    """
    quad = QuadratureSpec(points_per_dim=M)
    u, under = iterate_log_norm_many(C, max(Ns), quad.nodes(C.d), at=Ns)
    assert not under.any()
    tols = []
    for row in u:
        row = row.reshape(M, -1)
        V = float(np.abs(row - np.roll(row, 1, axis=0)).sum(axis=0).max())
        tols.append(2.0 * V / (2 * M) + EPS)
    return tols


def _assert_herman(C: Cocycle, lam: float, Ns, M: int) -> None:
    table = le_table(C, Ns, QuadratureSpec(points_per_dim=M))
    for N, est, tol in zip(Ns, table, _herman_tols(C, Ns, M)):
        assert est.value >= math.log(lam) - tol, (N, est.value, tol)


@pytest.mark.parametrize("lam", [1.5, 3.0])
@pytest.mark.parametrize("E", [0.0, 0.7, -2.5, 6.0])
def test_herman_bound_amo(lam, E):
    t0 = time.perf_counter()
    C = Cocycle(amo(lam, E), Frequency((GOLDEN,)))
    _assert_herman(C, lam, [1, 16, 128], 8192)
    assert time.perf_counter() - t0 < BUDGET_S


@pytest.mark.parametrize("lam", [1.5, 3.0])
def test_herman_bound_two_frequency_schrodinger(lam):
    t0 = time.perf_counter()
    v = TrigPoly.cosine((1, 0), 2.0 * lam)
    for E in (0.0, 1.3):
        C = Cocycle(schrodinger(v, E, d=2), Frequency((GOLDEN, SILVER)))
        _assert_herman(C, lam, [1, 8], 256)
    assert time.perf_counter() - t0 < BUDGET_S


def _linear(alpha: complex, beta: complex, k: int = 1) -> TrigPoly:
    """alpha + beta e^{2 pi i k x} on T^1."""
    return TrigPoly(1, {(0,): alpha, (k,): beta})


# (a, b, d) entries of [[a, b], [0, d]]: the entry with the larger |alpha|
# dominates the other pointwise, and the other vanishes somewhere on the
# circle (|alpha| = |beta|), so det A has a zero: a singular cocycle.
TRIANGULAR = {
    "a-dominant": ((2.0, 1.0j, 1), (0.5, -0.25, 2), (0.5, 0.5, 1)),
    "d-dominant": ((0.3j, 0.3, 1), (1.0, 1.0, 1), (1.5, 0.5, -1)),
    "both-complex": ((2.0 + 2.0j, 0.5 - 0.5j, 2), (0.0, 2.0, 1),
                     (-0.6, 0.6j, 1)),
}


def _sup_abs(alpha, beta) -> float:
    return abs(alpha) + abs(beta)


def _inf_abs(alpha, beta) -> float:
    return abs(abs(alpha) - abs(beta))


@pytest.mark.parametrize("case", sorted(TRIANGULAR))
def test_jensen_upper_triangular(case):
    """ln max|alpha| - tol_q <= L'_N <= ln max|alpha| + tol_N + tol_q.

    With p the dominant diagonal entry, |p| >= p_min > 0 and |other| <= |p|:
    |a_N| or |d_N| = |p_N| bounds ||A_N|| below, and the corner of A_N,
    sum_j a_{N-1}..a_{j+1} b_j d_{j-1}..d_0, is at most N |p_N| sup|b| / p_min,
    so ||A_N|| <= |p_N| sqrt(2 + (N sup|b| / p_min)^2): tol_N is that log
    over N. (1/N) ln|p_N| sums N shifts of ln|alpha + beta e(kx)|, whose
    Fourier modes decay as r^n / n with r = |beta/alpha|; the M-point
    midpoint rule keeps only the modes n that M divides, so
    tol_q = r^M / (M (1 - r^M)).
    """
    t0 = time.perf_counter()
    (aa, ab, ak), (ba, bb, bk), (da, db, dk) = TRIANGULAR[case]
    a, b, d = _linear(aa, ab, ak), _linear(ba, bb, bk), _linear(da, db, dk)
    zero = TrigPoly(1, {})
    A = TrigPolyMatrix(a, b, zero, d, rho=0.5)
    C = Cocycle(A, Frequency((GOLDEN,)))
    dom, other = ((aa, ab), (da, db))
    if abs(da) > abs(aa):
        dom, other = other, dom
    assert _sup_abs(*other) <= _inf_abs(*dom)   # |other| <= |p| pointwise
    assert _inf_abs(*other) == 0.0              # the other entry vanishes
    L = max(math.log(max(abs(aa), abs(ab))), math.log(max(abs(da), abs(db))))
    assert L == math.log(abs(dom[0]))
    M = 256
    r = abs(dom[1] / dom[0])
    tol_q = r ** M / (M * (1.0 - r ** M)) + EPS
    for N in (1, 10, 100, 1000):
        value = L_prime_N(C, N, QuadratureSpec(points_per_dim=M)).value
        tol_N = 0.5 * math.log(
            2.0 + (N * _sup_abs(ba, bb) / _inf_abs(*dom)) ** 2) / N
        assert L - tol_q <= value <= L + tol_N + tol_q, (N, value, L)
    assert time.perf_counter() - t0 < BUDGET_S
