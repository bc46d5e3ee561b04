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
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import _util, deviation, lyapunov
from cocyclelab._util import (
    MAX_NODES,
    UNDERFLOW_FLOOR,
    PairwiseSum,
    dyadic_grid,
    grid,
    map_chunked,
    op_norm_2x2,
    set_max_workers,
    step_2x2,
)
from cocyclelab.cocycle import (
    Cocycle,
    DiscontinuityExample,
    RenormalizedMatrix,
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
    A = TrigPolyMatrix(e11, TrigPoly.constant(1, -1.0), a,
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


# A flat array is one node, so for d = 1 three numbers would be one node
# with three coordinates: every shape but (m, d) and (d,) is refused before
# the orbit runs, with the given and the expected shape.
@pytest.mark.parametrize("d, X, given", [
    (1, np.array([0.1, 0.2, 0.3]), r"\(3,\)"),
    (1, np.zeros((4, 2)), r"\(4, 2\)"),
    (2, np.zeros((4, 1)), r"\(4, 1\)"),
    (1, np.zeros((2, 3, 1)), r"\(2, 3, 1\)"),
], ids=["d1-flat", "d1-two-coords", "d2-one-coord", "d1-3-dims"])
def test_node_shape_is_checked(d, X, given):
    C = BITWISE["amo" if d == 1 else "schrodinger-2d"]()
    with pytest.raises(ValueError, match=given + rf".*\(m, {d}\)"):
        iterate_log_norm_many(C, 3, X)


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
        parts = map_chunked(lambda rows: arr[rows].sum(), len(arr))
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
        parts = map_chunked(lambda rows: arr[rows].shape[0], len(arr))
    finally:
        set_max_workers(1)
    assert _RecordingExecutor.seen == seen
    assert sum(parts) == rows
    assert min(parts) >= min(rows, _util.MIN_ROWS_PER_WORKER)


# One worker walks a batch in BLOCK_ROWS blocks, a short one last; an empty
# batch is still one (empty) call.
@pytest.mark.parametrize("block, rows, sizes", [
    (7, 50, [7] * 7 + [1]),
    (None, 3 * _util.BLOCK_ROWS + 5, [_util.BLOCK_ROWS] * 3 + [5]),
    (None, 0, [0]),
])
def test_one_worker_walks_blocks_in_order(monkeypatch, block, rows, sizes):
    if block is not None:
        monkeypatch.setattr(_util, "BLOCK_ROWS", block)
    monkeypatch.setattr(_util, "ThreadPoolExecutor", _RecordingExecutor)
    _RecordingExecutor.seen = []
    arr = np.arange(float(rows)).reshape(-1, 1)
    parts = map_chunked(lambda rows: arr[rows, 0].copy(), len(arr))
    assert _RecordingExecutor.seen == []
    assert [p.size for p in parts] == sizes
    assert np.array_equal(np.concatenate(parts), arr[:, 0])


# Blocks of 7 rows over 50 excising nodes: nodes die at different steps,
# some before the read at 5 and some between 5 and N, so the underflow
# accounting crosses block edges. At 2 workers the same rows are split in
# two chunks instead.
@pytest.mark.parametrize("workers", [1, 2], indirect=True)
def test_blocked_walk_matches_rows_run_alone(monkeypatch, workers):
    monkeypatch.setattr(_util, "BLOCK_ROWS", 7)
    C = _excising(G1, floor=0.05)
    N, at = 40, [1, 5, 40]
    X = np.linspace(0.0, 1.0, 50, endpoint=False).reshape(-1, 1)
    avg, under = iterate_log_norm_many(C, N, X, at=at)
    assert under[1].any() and (under[2] & ~under[1]).any() and not under[2].all()
    for i in range(X.shape[0]):
        alone, alone_under = iterate_log_norm_many(C, N, X[i:i + 1], at=at)
        assert np.array_equal(under[:, i], alone_under[:, 0])
        assert avg[:, i].tobytes() == alone[:, 0].tobytes()


# ---------------------------------------------------------------------------
# The look-ahead kernel against the one-step-at-a-time kernel
# ---------------------------------------------------------------------------

def ref_iterate_chunk(A, omega_vec, reads, X):
    """The orbit kernel as it was before evaluation looked ahead, verbatim
    apart from its name and the unpacking of step_2x2's result: one
    eval_many call per step on the current points."""
    m = X.shape[0]
    N = reads[-1]
    U = np.zeros((2, 2, m), dtype=complex)
    U[0, 0] = U[1, 1] = 1.0
    V = np.empty_like(U)
    steps = np.full(m, N)
    alive = None  # None while every node is alive, so no masking is needed
    acc = PairwiseSum()
    avg = np.empty((len(reads), m))
    r = 0
    pts = X.copy()
    for j in range(N):
        s, _ = step_2x2(A.eval_many(pts), U, V)
        U, V = V, U
        ok = np.isfinite(s) & (s > UNDERFLOW_FLOOR)
        if alive is not None or not ok.all():
            alive = ok if alive is None else alive & ok
            steps[~alive & (steps == N)] = j
            s = np.where(alive, s, 1.0)
            U[:, :, ~alive] = np.eye(2)[:, :, None]
        # U / s would promote s to complex, and numpy's complex division with
        # a zero imaginary part multiplies by 1/s: same bits, lower cost.
        U *= 1.0 / s
        acc.add(np.log(s))
        if reads[r] == j + 1:
            # total() leaves the levels as they are, so the orbit goes on
            avg[r] = acc.total() / (j + 1)
            r += 1
        pts = _frac(pts + omega_vec)
    return avg, steps


class _COrderEvaluator:
    """An outside evaluator: the values of base, copied to C order."""

    def __init__(self, base):
        self.base, self.d = base, base.d

    def eval_many(self, X):
        return np.ascontiguousarray(self.base.eval_many(X))


# Every node dies at its first step (norm 1e-305 < UNDERFLOW_FLOOR), or
# lives with every norm rescaled (1e-200).
def _tiny(scale=1e-305):
    return Cocycle(TrigPolyMatrix.constant(1, np.diag([scale, scale])), G1)


LOOKAHEAD = {
    "amo": lambda: Cocycle(amo(3.0, 0.3), G1),
    "excising": lambda: _excising(G1, floor=0.05),
    "c-order": lambda: Cocycle(_COrderEvaluator(amo(3.0, 0.3)), G1),
    "schrodinger-2d": BITWISE["schrodinger-2d"],
    "jacobi-renorm": CLOSE["jacobi-renorm"],
    "tiny": _tiny,
    "tiny-alive": lambda: _tiny(1e-200),
    "discontinuity-resonant": BITWISE["discontinuity-omega0"],
}
# the cocycles run at every m; the others at a few
LOOKAHEAD_EVERY_M = ("amo", "excising", "c-order")
LOOKAHEAD_M = (1, 3, 341, 512, 1023, 1024, 1025)


def _lookahead_cases():
    for name in sorted(LOOKAHEAD):
        for m in LOOKAHEAD_M if name in LOOKAHEAD_EVERY_M else (1, 341, 1025):
            yield name, m


def _block_reads(m):
    """An orbit length that is not a multiple of the look-ahead B for m
    nodes, and reads on both sides of the first block edge, inside the
    second block and at the end (unsorted, one repeated)."""
    B = max(1, _util.LOOKAHEAD_ROWS // m)
    N = 2 * B + 1 if B > 1 else 5
    return N, [N, 1, B, B + 1, max(1, B - 1), B + 2 if B + 2 <= N else N, 1]


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("name, m", list(_lookahead_cases()))
def test_lookahead_matches_one_step_kernel(name, m, workers):
    C = LOOKAHEAD[name]()
    N, at = _block_reads(m)
    X = _nodes(C.d, m=m)
    reads = sorted(set(at))
    want_avg, want_steps = ref_iterate_chunk(C.A, C.omega.as_array(), reads, X)
    avg, under = iterate_log_norm_many(C, N, X, at=at)
    rows = np.searchsorted(reads, at)
    assert np.array_equal(under, want_steps < np.array(at)[:, None])
    assert avg.tobytes() == want_avg[rows].tobytes()
    if name == "excising" and m >= 341:
        # nodes die inside a look-ahead block, not only at its edges
        died = want_steps[want_steps < N]
        B = max(1, _util.LOOKAHEAD_ROWS // m)
        assert B == 1 or (died % B != 0).any()
    if name == "tiny":
        assert under.all()
    if name == "tiny-alive":
        assert not under.any()


# 300 nodes step three at a time (B = 3); one node alone steps 1024 at a time.
def test_lookahead_batch_matches_each_node_alone():
    C = _excising(G1, floor=0.05)
    N, at = 40, [1, 3, 4, 20, 40]
    X = np.linspace(0.0, 1.0, 300, endpoint=False).reshape(-1, 1)
    assert _util.LOOKAHEAD_ROWS // X.shape[0] == 3
    avg, under = iterate_log_norm_many(C, N, X, at=at)
    assert under[-1].any() and not under[-1].all()
    for i in range(X.shape[0]):
        alone, alone_under = iterate_log_norm_many(C, N, X[i:i + 1], at=at)
        assert np.array_equal(under[:, i], alone_under[:, 0])
        assert avg[:, i].tobytes() == alone[:, 0].tobytes()


# Matrices far beyond the range where the closed form's f^2 is finite.
def test_op_norm_matches_svd_on_huge_matrices():
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((400, 2, 2)) + 1j * rng.standard_normal((400, 2, 2))
    mats *= (10.0 ** rng.uniform(80, 150, 400))[:, None, None]
    mats[:5, 1] = 0.0          # singular: det = 0
    mats[5:10, 1] = mats[5:10, 0] * 1e-20  # nearly singular
    got = op_norm_2x2(mats.transpose(1, 2, 0))
    want = np.linalg.svd(mats, compute_uv=False)[:, 0]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# Matrices whose squared Frobenius norm is below the smallest normal double,
# down to subnormal entries, and zero matrices.
def test_op_norm_matches_svd_on_tiny_matrices():
    rng = np.random.default_rng(7)
    mats = rng.standard_normal((400, 2, 2)) + 1j * rng.standard_normal((400, 2, 2))
    mats *= (10.0 ** rng.uniform(-300, -160, 400))[:, None, None]
    mats[:5, 1] = 0.0          # singular: det = 0
    mats[5:10, 1] = mats[5:10, 0] * 1e-20  # nearly singular
    mats[10:12] = 0.0
    mats[12] = np.diag([1e-160, 1e-160])
    mats[13] = np.diag([1e-200, 1e-200])
    mats[14] = np.diag([3e-320, 1e-320])
    got = op_norm_2x2(mats.transpose(1, 2, 0))
    want = np.linalg.svd(mats, compute_uv=False)[:, 0]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# Each step's product has norm 1e-200, above UNDERFLOW_FLOOR: no node is
# excised, and the average is ln 1e-200 at every N.
def test_tiny_constant_cocycle_is_not_excised():
    C = Cocycle(TrigPolyMatrix.constant(1, np.diag([1e-200, 1e-200])), G1)
    avg, under = iterate_log_norm_many(C, 4, _nodes(1, m=8), at=(1, 4))
    assert not under.any()
    np.testing.assert_allclose(avg, math.log(1e-200), rtol=1e-15)


# The closed form keeps its bits wherever f*f stays normal. Below
# f = 2^-511 it underflows and the norm is rescaled, so there the reference
# is SVD: [[2, 0.3], [0.1, 1]] * 1e-100 read 1.5969e-100 unscaled, against
# 2.0418e-100.
def test_op_norm_keeps_bits_of_ordinary_matrices():
    rng = np.random.default_rng(6)
    mats = rng.standard_normal((4000, 2, 2)) + 1j * rng.standard_normal((4000, 2, 2))
    mats *= (10.0 ** rng.uniform(-150, 70, 4000))[:, None, None]
    mats[0] = np.array([[2, 0.3], [0.1, 1]]) * 1e-100
    got = op_norm_2x2(mats.transpose(1, 2, 0))
    small = (np.abs(mats) ** 2).sum(axis=(1, 2)) < 2.0**-511
    assert 1000 < small.sum() < 3000 and small[0]
    assert np.array_equal(got[~small], ref_op_norm(mats[~small]))
    want = np.linalg.svd(mats[small], compute_uv=False)[:, 0]
    np.testing.assert_allclose(got[small], want, rtol=1e-14, atol=0.0)


def test_op_norm_of_non_finite_entries_is_non_finite():
    mats = np.ones((4, 2, 2), dtype=complex)
    mats[0, 0, 0] = np.nan
    mats[1, 1, 0] = np.inf
    mats[2, 0, 1] = complex(1e200, np.nan)
    mats[3, 1, 1] = complex(-np.inf, 1e200)
    got = op_norm_2x2(mats.transpose(1, 2, 0))
    assert not np.isfinite(got).any()


# ---------------------------------------------------------------------------
# Real arithmetic against the complex kernel
# ---------------------------------------------------------------------------

class _AsComplex:
    """An evaluator that returns the values of base as complex128, so the
    kernel runs it in complex arithmetic."""

    def __init__(self, base):
        self.base, self.d = base, base.d

    def eval_many(self, X):
        return self.base.eval_many(X).astype(complex)


def _harmonic(d, k, ck, c0=0.0):
    """c0 + ck e^{2 pi i k.x} + conj(ck) e^{-2 pi i k.x} (c0 alone when k
    is 0): real by construction."""
    coeffs = {(0,) * d: c0}
    if any(k):
        coeffs[tuple(k)] = ck
        coeffs[tuple(-v for v in k)] = ck.conjugate()
    return TrigPoly(d, coeffs)


_phase = st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0,
                            allow_nan=False, allow_infinity=False)


@st.composite
def real_cocycles(draw):
    """A cocycle whose matrix evaluates in float64: a Schrodinger matrix
    with one harmonic and a complex c_k, a Jacobi matrix (q = 1) whose a
    has zeros, or a matrix of four single-harmonic entries, each with its
    own k and scaled to either tail of the closed-form norm; raw or
    renormalized, with nodes, an orbit length and reads."""
    d = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
    kind = draw(st.sampled_from(["schrodinger", "jacobi", "matrix"]))
    omega = Frequency(tuple(draw(st.sampled_from([0.0, 0.5, GOLDEN, SILVER]))
                            for _ in range(d)))
    E = draw(st.floats(-3, 3))
    if kind == "schrodinger":
        A = schrodinger(_harmonic(d, draw(index), draw(_phase),
                                  draw(st.floats(-2, 2))), E, d=d)
    elif kind == "jacobi":
        c = draw(_phase)
        # |a0| <= 2|c|: a vanishes on a hypersurface of the torus
        a = _harmonic(d, draw(index), c, draw(st.floats(-2, 2)) * abs(c))
        A = jacobi(_harmonic(d, draw(index), draw(_phase)), a, E, omega)
    else:
        entries = [_harmonic(d, draw(st.tuples(*[st.integers(-3, 3)] * d)),
                             draw(_phase), draw(st.floats(-2, 2)))
                   for _ in range(4)]
        A = TrigPolyMatrix(*entries, rho=0.5).scaled(
            draw(st.sampled_from([1.0, 1e150, 1e-160])))
    if draw(st.booleans()):
        A = RenormalizedMatrix(A)
    m = draw(st.sampled_from([1, 2, 7, 300]))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((m, d))
    N = draw(st.integers(1, 40))
    at = draw(st.lists(st.integers(1, N), min_size=1, max_size=4))
    return Cocycle(A, omega), N, X, at


def _run_at_workers(C, N, X, at, workers):
    """iterate_log_norm_many at the given worker count, every batch split
    however small, as the workers fixture does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 8)
        mp.setattr(_util, "MIN_ROWS_PER_WORKER", 1)
        set_max_workers(workers)
        try:
            return iterate_log_norm_many(C, N, X, at=at)
        finally:
            set_max_workers(1)


def _assert_real_run_matches_complex(C, N, X, at):
    assert C.A.eval_many(X[:1]).dtype == np.float64
    want, want_under = iterate_log_norm_many(Cocycle(_AsComplex(C.A), C.omega),
                                             N, X, at=at)
    for workers in (1, 2, 3):
        got, under = _run_at_workers(C, N, X, at, workers)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(under, want_under)


@given(real_cocycles())
@settings(max_examples=60, deadline=None)
def test_real_arithmetic_matches_complex_run(case):
    """The float64 kernel gives the complex kernel's bits, for avg,
    underflowed and reads at, at 1, 2 and 3 workers."""
    _assert_real_run_matches_complex(*case)


@pytest.mark.parametrize("renorm", [False, True])
@pytest.mark.parametrize("lam", [1e150, 1e-200])
def test_real_arithmetic_tails(lam, renorm):
    # 1e150: every product passes the closed form's range and is rescaled
    A = amo(lam, 0.0)
    C = Cocycle(RenormalizedMatrix(A) if renorm else A, G1)
    _assert_real_run_matches_complex(C, 64, _nodes(1, m=300), [1, 7, 64])


def test_real_arithmetic_op_norm_matches_complex():
    # ordinary matrices, both tails, zero matrices and non-finite entries
    rng = np.random.default_rng(12)
    mats = rng.standard_normal((4000, 2, 2))
    mats *= (10.0 ** rng.uniform(-200, 200, 4000))[:, None, None]
    mats[:4] = 0.0
    mats[1, 0, 0], mats[2, 1, 1], mats[3, 0, 1] = np.nan, np.inf, -np.inf
    E = mats.transpose(1, 2, 0)
    got = op_norm_2x2(E)
    assert got.dtype == np.float64
    assert got.tobytes() == op_norm_2x2(E.astype(complex)).tobytes()
    U = np.ascontiguousarray(rng.standard_normal((4000, 2, 2)).transpose(1, 2, 0))
    real_out, complex_out = np.empty_like(U), np.empty_like(U, dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, inf - inf
        s, _ = step_2x2(mats, U, real_out)
        s_c, _ = step_2x2(mats.astype(complex), U.astype(complex), complex_out)
    assert s.tobytes() == s_c.tobytes()
    assert np.array_equal(real_out, complex_out.real, equal_nan=True)
    assert np.all(complex_out.imag[np.isfinite(complex_out.imag)] == 0)


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


# ---------------------------------------------------------------------------
# Segmented pairwise sums
# ---------------------------------------------------------------------------

def ref_pairwise_total(values) -> float:
    """pairwise_total as it was before the segmented form, kept verbatim
    apart from its name as the byte reference."""
    a = np.asarray(values, dtype=np.float64).ravel()
    total = None
    i = 0
    n = a.size
    while i < n:
        k = 1 << ((n - i).bit_length() - 1)
        block = a[i:i + k]
        while block.size > 1:
            block = block[0::2] + block[1::2]
        part = float(block[0])
        total = part if total is None else total + part
        i += k
    return 0.0 if total is None else total


_SEGMENT_LENGTHS = sorted({0, 1, 2, 3, 5, 7}
                          | {(1 << k) + e for k in range(2, 8)
                             for e in (-1, 0, 1)})


@given(st.lists(st.sampled_from(_SEGMENT_LENGTHS), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_real_arithmetic_pairwise_totals_per_segment(lengths, seed, pad):
    """Adjacent segments, with pad unused values on either side, sum as
    each segment alone does, bit for bit."""
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    a = rng.standard_normal(n + 2 * pad) * 10.0 ** rng.integers(-8, 9, n + 2 * pad)
    starts = pad + np.cumsum(lengths) - lengths
    got = _util.pairwise_totals(a, starts, lengths)
    assert got.dtype == np.float64 and got.shape == (len(lengths),)
    for s, k, total in zip(starts.tolist(), lengths, got.tolist()):
        seg = a[s:s + k]
        want = ref_pairwise_total(seg)
        assert np.float64(total).tobytes() == np.float64(want).tobytes()
        assert np.float64(_util.pairwise_total(seg)).tobytes() == \
            np.float64(want).tobytes()


def test_real_arithmetic_pairwise_totals_keep_a_negative_zero():
    a = np.array([-0.0, 1.0, -0.0, -0.0, -0.0])
    got = _util.pairwise_totals(a, [0, 2, 4], [1, 2, 1])
    assert got.tobytes() == np.array([-0.0, -0.0, -0.0]).tobytes()
    assert _util.pairwise_totals(a, [1], [0]).tolist() == [0.0]


# ---------------------------------------------------------------------------
# cdt: one run of the base grid serves every shift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_real_arithmetic_cdt_many_shifts_equal_separate_calls(count,
                                                             monkeypatch):
    C = _excising(Frequency((0.05,)), floor=0.2)
    M, N = 512, 4
    # 0.5 maps the grid onto itself; the others move every orbit off it
    shifts = [[0.1], [0.5], [0.01], [0.37]][:count]
    rows = []

    def counting(C, N, X, at):
        rows.append(X.shape[0])
        return iterate_log_norm_many(C, N, X, at=at)

    monkeypatch.setattr(lyapunov, "iterate_log_norm_many", counting)
    many = deviation.cdt_empirical_many(C, N, shifts, 0.01, M,
                                        renormalize_first=False)
    # the grid and each shifted grid once, at most two grids a batch
    assert sum(rows) == (1 + count) * M and max(rows) <= 2 * M
    monkeypatch.undo()
    X = dyadic_grid(1, M)
    (_, u0) = iterate_log_norm_many(C, N, X)
    for a, est in zip(shifts, many):
        (_, u1) = iterate_log_norm_many(C, N, (X + a) % 1.0)
        # some node pairs are dropped, by one orbit or by both
        assert (u0 | u1).any() and not (u0 | u1).all()
        alone = deviation.cdt_empirical(C, N, a, 0.01, M,
                                        renormalize_first=False)
        assert _util.to_json_text(est) == _util.to_json_text(alone)
