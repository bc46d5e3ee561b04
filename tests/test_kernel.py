"""The orbit-product kernel against the matmul loop it replaced.

The reference below is the earlier kernel, kept verbatim apart from names:
it carries the running products as an (m, 2, 2) stack and multiplies it with
`mats @ U`. For Schrodinger-form and diagonal cocycles the kernel must agree
with it bit for bit. For general complex entries the stacked matmul goes
through BLAS, whose fused multiply-adds elementwise numpy cannot reproduce,
so those cocycles agree to a relative 1e-12 instead.
"""
import math
import os

import numpy as np
import pytest

from cocyclelab import _util
from cocyclelab._util import (
    MAX_NODES,
    UNDERFLOW_FLOOR,
    PairwiseSum,
    dyadic_grid,
    grid,
    map_chunked,
    op_norm_2x2,
    set_max_workers,
)
from cocyclelab.cocycle import (
    Cocycle,
    DiscontinuityExample,
    TrigPoly,
    TrigPolyMatrix,
    amo,
    iterate_log_norm,
    iterate_log_norm_many,
    jacobi,
    jacobi_periodic,
    renormalize,
    schrodinger,
)
from cocyclelab.errors import ScanTooLarge
from cocyclelab.lyapunov import QuadratureSpec
from cocyclelab.torus import Frequency

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


def _frac(x):
    return x - np.floor(x)


def ref_op_norm(mats):
    m = np.asarray(mats)
    a, b = m[..., 0, 0], m[..., 0, 1]
    c, d = m[..., 1, 0], m[..., 1, 1]
    f = (a.real**2 + a.imag**2 + b.real**2 + b.imag**2
         + c.real**2 + c.imag**2 + d.real**2 + d.imag**2)
    det = a * d - b * c
    det2 = det.real**2 + det.imag**2
    disc = np.maximum(f * f - 4.0 * det2, 0.0)
    return np.sqrt(0.5 * (f + np.sqrt(disc)))


def ref_iterate(A, omega_vec, N, X):
    """(avg, underflowed) by the (m, 2, 2) matmul loop."""
    m = X.shape[0]
    U = np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2)).copy()
    alive = np.ones(m, dtype=bool)
    acc = PairwiseSum()
    pts = X.copy()
    for _ in range(N):
        mats = A.eval_many(pts)
        U = mats @ U
        s = ref_op_norm(U)
        ok = np.isfinite(s) & (s > UNDERFLOW_FLOOR)
        alive &= ok
        safe = np.where(alive, s, 1.0)
        U = np.where(alive[:, None, None], U / safe[:, None, None],
                     np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2)))
        acc.add(np.where(alive, np.log(safe), 0.0))
        pts = _frac(pts + omega_vec)
    return acc.total() / N, ~alive


def ref_partial_logs(A, omega_vec, N, x):
    """Per-step log factors of one orbit by the scalar loop; stops at underflow."""
    pts = np.asarray(x, dtype=float).reshape(1, -1)
    U = np.eye(2, dtype=complex)
    logs = []
    for _ in range(N):
        U = A.eval_many(pts)[0] @ U
        s = float(ref_op_norm(U[None])[0])
        if not math.isfinite(s) or s <= UNDERFLOW_FLOOR:
            return logs, True
        U = U / s
        logs.append(math.log(s))
        pts = _frac(pts + omega_vec)
    return logs, False


@pytest.fixture
def workers(request, monkeypatch):
    """Run with the given worker count, uncapped by this host's core count
    and by the rows-per-worker floor, so small batches are split too."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(_util, "MIN_ROWS_PER_WORKER", 1)
    set_max_workers(request.param)
    yield request.param
    set_max_workers(1)


def _v2():
    return TrigPoly.cosine((1, 0), 2.0) + TrigPoly.cosine((0, 1), 1.0)


def _jacobi_parts():
    v = TrigPoly.cosine((1,), 4.0)
    a = TrigPoly(1, {(0,): 1.0, (1,): 0.25 + 0.1j, (-1,): 0.25})
    return v, a


G1 = Frequency((GOLDEN,))
G2 = Frequency((GOLDEN, SILVER))

BITWISE = {
    "amo": lambda: Cocycle(amo(3.0, 0.3), G1),
    "schrodinger-2d": lambda: Cocycle(schrodinger(_v2(), 0.2, d=2), G2),
    "schrodinger-2d-renorm": lambda: Cocycle(renormalize(schrodinger(_v2(), 0.2, d=2)), G2),
    "discontinuity": lambda: Cocycle(DiscontinuityExample((1,)), G1),
    "discontinuity-omega0": lambda: Cocycle(DiscontinuityExample((1,)), Frequency((0.0,))),
}

CLOSE = {
    "jacobi": lambda: Cocycle(jacobi(*_jacobi_parts(), 0.3, G1), G1),
    "jacobi-renorm": lambda: Cocycle(renormalize(jacobi(*_jacobi_parts(), 0.3, G1)), G1),
    "jacobi-periodic": lambda: Cocycle(
        jacobi_periodic(*_jacobi_parts(), [0.0, 1.0, -0.5], 0.3, G1), G1),
}


def _nodes(d, m=97):
    return np.random.default_rng(11).random((m, d))


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("name", sorted(BITWISE))
def test_kernel_matches_matmul_loop_bitwise(name, workers):
    C = BITWISE[name]()
    X = _nodes(C.d)
    want, want_under = ref_iterate(C.A, C.omega.as_array(), 64, X)
    got, under = iterate_log_norm_many(C, 64, X)
    assert np.array_equal(under, want_under)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("name", sorted(CLOSE))
def test_kernel_matches_matmul_loop_closely(name, workers):
    C = CLOSE[name]()
    X = _nodes(C.d)
    want, want_under = ref_iterate(C.A, C.omega.as_array(), 64, X)
    got, under = iterate_log_norm_many(C, 64, X)
    assert np.array_equal(under, want_under)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# det A(x) = a(x) = cos(2 pi x) + 0.3, so renormalize(A, floor) kills the
# nodes whose orbit meets |a| < floor.
def _excising(omega, floor=0.5):
    a = TrigPoly.cosine((1,), 1.0) + TrigPoly.constant(1, 0.3)
    e11 = TrigPoly.constant(1, 0.4) - TrigPoly.cosine((1,), 3.0)
    A = TrigPolyMatrix.from_entries(e11, TrigPoly.constant(1, -1.0), a,
                                    TrigPoly(1, {}), rho=0.5)
    return Cocycle(renormalize(A, floor=floor), omega)


def _det_abs(x):
    return np.abs(np.cos(2 * math.pi * x) + 0.3)


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
def test_excision_flags_exact_at_chunk_boundaries(workers):
    # omega = 0: a node dies at its first step exactly when |det| < floor.
    # The blocks dead|live|dead|live of sizes 20, 10, 10, 20 put a chunk
    # boundary between dead and live nodes at 2 workers (index 30) and at
    # 3 workers (indices 20 and 40).
    dead = np.linspace(0.24, 0.38, 30)
    live = np.linspace(0.00, 0.12, 30)
    X = np.concatenate([dead[:20], live[:10], dead[20:], live[10:]]).reshape(-1, 1)
    want = _det_abs(X[:, 0]) < 0.5
    assert np.array_equal(want, np.repeat([True, False, True, False], [20, 10, 10, 20]))
    C = _excising(Frequency((0.0,)))
    avg, under = iterate_log_norm_many(C, 16, X)
    assert np.array_equal(under, want)
    alone, alone_under = iterate_log_norm_many(C, 16, X[~want])
    assert not alone_under.any()
    assert np.array_equal(avg[~want], alone)


@pytest.mark.parametrize("workers", [1, 2], indirect=True)
def test_excision_midway_keeps_healthy_nodes_bitwise(workers):
    # An irrational shift makes nodes die at different steps, so the masked
    # path runs for many steps while the healthy nodes keep iterating.
    C = _excising(G1, floor=0.05)
    X = np.linspace(0.0, 1.0, 64, endpoint=False).reshape(-1, 1)
    want_avg, want_under = ref_iterate(C.A, C.omega.as_array(), 40, X)
    assert want_under.any() and not want_under.all()
    avg, under = iterate_log_norm_many(C, 40, X)
    assert np.array_equal(under, want_under)
    keep = ~under
    np.testing.assert_allclose(avg[keep], want_avg[keep], rtol=1e-12, atol=0.0)
    alone, alone_under = iterate_log_norm_many(C, 40, X[keep])
    assert not alone_under.any()
    assert np.array_equal(avg[keep], alone)


# One orbit read at several step counts against one orbit per count. The
# lists are unsorted, repeat an entry and hold the single-step read; on the
# excising cocycle nodes die between the reads, so the rows differ in which
# nodes they flag.
AT_LISTS = {"mixed": [1000, 250, 250, 2000, 1], "single": [16]}
AT_COCYCLES = {
    "amo": lambda: Cocycle(amo(3.0, 0.3), G1),
    "excising": lambda: _excising(G1, floor=0.05),
}


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("at", sorted(AT_LISTS))
@pytest.mark.parametrize("name", sorted(AT_COCYCLES))
def test_reads_at_match_separate_orbits_bitwise(name, at, workers):
    C = AT_COCYCLES[name]()
    Ns = AT_LISTS[at]
    X = _nodes(C.d)
    avg, under = iterate_log_norm_many(C, max(Ns), X, at=Ns)
    assert avg.shape == under.shape == (len(Ns), X.shape[0])
    assert under.dtype == bool
    for r, N in enumerate(Ns):
        want, want_under = iterate_log_norm_many(C, N, X)
        assert np.array_equal(under[r], want_under)
        assert np.array_equal(avg[r], want)
    if name == "excising" and at == "mixed":
        counts = [int(u.sum()) for u in under]
        assert counts[-1] < counts[0] == X.shape[0]


class _CountingEvaluator:
    """Wraps an evaluator and counts the points it is asked for."""

    def __init__(self, base):
        self.base, self.d, self.points = base, base.d, 0

    def eval_many(self, X):
        self.points += np.atleast_2d(X).shape[0]
        return self.base.eval_many(X)


def test_reads_at_run_exactly_N_steps():
    A = _CountingEvaluator(amo(3.0, 0.3))
    X = _nodes(1, m=10)
    iterate_log_norm_many(Cocycle(A, G1), 7, X, at=(3, 7, 3))
    assert A.points == 7 * 10


def test_reads_before_N_still_run_N_steps():
    A = _CountingEvaluator(amo(3.0, 0.3))
    C = Cocycle(A, G1)
    X = _nodes(1, m=10)
    avg, under = iterate_log_norm_many(C, 10, X, at=(3, 5))
    assert A.points == 10 * 10
    for row, n in enumerate((3, 5)):
        want_avg, want_under = iterate_log_norm_many(C, n, X)
        assert avg[row].tobytes() == want_avg.tobytes()
        assert np.array_equal(under[row], want_under)


def test_reads_at_are_checked():
    C = Cocycle(amo(3.0, 0.3), G1)
    X = _nodes(1, m=4)
    with pytest.raises(ValueError, match="N must be >= 1"):
        iterate_log_norm_many(C, 5, X, at=(2, 0))
    with pytest.raises(ValueError, match="orbit length 5"):
        iterate_log_norm_many(C, 5, X, at=(6,))


# Starting points whose orbit survives 40 steps (None) or underflows at the
# given step, so the partial logs are the whole orbit, empty, or cut short.
# Reading one orbit at every step count n gives the partial sums n * avg[n].
@pytest.mark.parametrize("x, dies_at", [(0.15, None), (0.3, 0), (0.4, 28)])
def test_collect_partial_matches_scalar_loop(x, dies_at):
    C = _excising(G1, floor=0.05)
    want_logs, want_under = ref_partial_logs(C.A, C.omega.as_array(), 40, (x,))
    assert want_under == (dies_at is not None)
    assert len(want_logs) == (40 if dies_at is None else dies_at)
    avg, under = iterate_log_norm_many(C, 40, np.array([[x]]), at=range(1, 41))
    ns = np.arange(1, 41)
    assert np.array_equal(under[:, 0], ns > len(want_logs))
    alive = ns[~under[:, 0]]
    got = alive * avg[alive - 1, 0]
    want = np.cumsum(want_logs)[alive - 1]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


# iterate_log_norm is a one-row iterate_log_norm_many; an underflowed orbit
# reads -inf. The nilpotent constant dies at its second step.
ONE_POINT = {
    "amo": (lambda: Cocycle(amo(3.0, 0.3), G1), (0.37,)),
    "excising-survives": (lambda: _excising(G1, floor=0.05), (0.15,)),
    "excising-dies": (lambda: _excising(G1, floor=0.05), (0.4,)),
    "schrodinger-2d": (lambda: Cocycle(schrodinger(_v2(), 0.2, d=2), G2), (0.21, 0.83)),
    "nilpotent-2d": (lambda: Cocycle(TrigPolyMatrix.constant(2, [[0, 1], [0, 0]]), G2),
                     (0.5, 0.25)),
}


@pytest.mark.parametrize("name", sorted(ONE_POINT))
def test_iterate_log_norm_is_one_row_of_the_batch(name):
    make, x = ONE_POINT[name]
    C = make()
    r = iterate_log_norm(C, 40, x)
    avg, under = iterate_log_norm_many(C, 40, np.array([x]))
    assert r.underflowed is bool(under[0])
    assert r.underflowed == (name.endswith("dies") or name.startswith("nilpotent"))
    want = -math.inf if under[0] else float(avg[0])
    assert r.log_norm_avg.hex() == want.hex()


class _RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

    seen = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return [fn(c) for c in chunks]


# A request one above the core count, and one far above it.
@pytest.mark.parametrize("far_above", [False, True])
def test_map_chunked_caps_workers_at_core_count(monkeypatch, far_above):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(_util, "ThreadPoolExecutor", _RecordingExecutor)
    _RecordingExecutor.seen = []
    arr = np.arange(65536.0).reshape(-1, 1)
    try:
        set_max_workers(30000 if far_above else 5)
        parts = map_chunked(lambda c: c.sum(), arr)
    finally:
        set_max_workers(1)
    assert _RecordingExecutor.seen == [4]
    assert len(parts) == 4 and sum(parts) == arr.sum()


@pytest.mark.parametrize("rows, seen", [(512, []), (2 * _util.MIN_ROWS_PER_WORKER - 1, []),
                                        (2 * _util.MIN_ROWS_PER_WORKER, [2]),
                                        (65536, [2])])
def test_map_chunked_needs_min_rows_per_worker(monkeypatch, rows, seen):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_util, "ThreadPoolExecutor", _RecordingExecutor)
    _RecordingExecutor.seen = []
    arr = np.arange(float(rows)).reshape(-1, 1)
    try:
        set_max_workers(2)
        parts = map_chunked(lambda c: c.shape[0], arr)
    finally:
        set_max_workers(1)
    assert _RecordingExecutor.seen == seen
    assert sum(parts) == rows
    assert min(parts) >= min(rows, _util.MIN_ROWS_PER_WORKER)


# Matrices far beyond the range where the closed form's f^2 is finite.
def test_op_norm_matches_svd_on_huge_matrices():
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((400, 2, 2)) + 1j * rng.standard_normal((400, 2, 2))
    mats *= (10.0 ** rng.uniform(80, 150, 400))[:, None, None]
    mats[:5, 1] = 0.0          # singular: det = 0
    mats[5:10, 1] = mats[5:10, 0] * 1e-20  # nearly singular
    got = op_norm_2x2(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])
    want = np.linalg.svd(mats, compute_uv=False)[:, 0]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_op_norm_keeps_bits_of_ordinary_matrices():
    rng = np.random.default_rng(6)
    mats = rng.standard_normal((4000, 2, 2)) + 1j * rng.standard_normal((4000, 2, 2))
    mats *= (10.0 ** rng.uniform(-150, 70, 4000))[:, None, None]
    got = op_norm_2x2(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])
    assert np.array_equal(got, ref_op_norm(mats))


def test_op_norm_of_non_finite_entries_is_non_finite():
    mats = np.ones((4, 2, 2), dtype=complex)
    mats[0, 0, 0] = np.nan
    mats[1, 1, 0] = np.inf
    mats[2, 0, 1] = complex(1e200, np.nan)
    mats[3, 1, 1] = complex(-np.inf, 1e200)
    got = op_norm_2x2(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])
    assert not np.isfinite(got).any()


# ---------------------------------------------------------------------------
# The grid builder against the three formulas it replaced
# ---------------------------------------------------------------------------

def ref_midpoint_grid(d, M):
    """The midpoint grid (i + 1/2)/M of a uniform-grid QuadratureSpec."""
    axis = (np.arange(M) + 0.5) / M
    grids = np.meshgrid(*(axis,) * d, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, d)


def ref_integer_grid(d, M):
    """The integer grid i/M of deviation and cov, without its checks."""
    axis = np.arange(M) / M
    grids = np.meshgrid(*(axis,) * d, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, d)


def ref_strip_grid(d, M):
    """The grid of each face of strip_norm."""
    grids = np.meshgrid(*(np.arange(M) / M,) * d, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, d)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("M", [1, 3, 8, 512])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_matches_old_formulas_bitwise(d, M):
    if M ** d > MAX_NODES:
        for build in (lambda: grid(d, M), lambda: grid(d, M, 0.5),
                      lambda: dyadic_grid(d, M),
                      lambda: QuadratureSpec(points_per_dim=M).nodes(d)):
            with pytest.raises(ScanTooLarge):
                build()
        return
    assert _same_bits(QuadratureSpec(points_per_dim=M).nodes(d), ref_midpoint_grid(d, M))
    assert _same_bits(grid(d, M, 0.5), ref_midpoint_grid(d, M))
    assert _same_bits(grid(d, M), ref_integer_grid(d, M))
    assert _same_bits(grid(d, M), ref_strip_grid(d, M))
    if M & (M - 1):
        with pytest.raises(ValueError, match="power of two"):
            dyadic_grid(d, M)
    else:
        assert _same_bits(dyadic_grid(d, M), ref_integer_grid(d, M))


def test_grid_guard_messages():
    M = 2 ** 11 + 1  # (2^11)^2 is MAX_NODES itself
    with pytest.raises(ScanTooLarge, match=f"^{M ** 2} grid nodes exceeds guard {MAX_NODES}$"):
        grid(2, M)
    with pytest.raises(ScanTooLarge,
                       match=f"^{M ** 2} quadrature nodes exceeds guard {MAX_NODES}$"):
        QuadratureSpec(points_per_dim=M).nodes(2)
