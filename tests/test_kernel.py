"""The orbit-product kernel against plain matmul loops.

The references below carry the running products as an (m, 2, 2) complex
stack, multiply with `mats @ U`, and renormalize by the kernel's rule: after
each product, a node's largest entry modulus mx (max(|re|, |im|) over the
four entries) has binary exponent e, the product is multiplied by 2^(1 - e)
and e - 1 is added to an integer sum, and a read at n is
ln ||U||/n + (sum/n) ln 2 with math.log. For Schrodinger-form and diagonal
cocycles the kernel must agree with them bit for bit. For general complex
entries the stacked matmul goes through BLAS, whose fused multiply-adds
elementwise numpy cannot reproduce, so those cocycles agree to a relative
1e-12 instead; where the kernel is checked bit for bit on them, the
reference writes the product out as the kernel's elementwise rows.
"""
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import _util, deviation, lyapunov
from cocyclelab._util import (
    MAX_NODES,
    UNDERFLOW_FLOOR,
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
    _phases,
)
from cocyclelab.errors import ScanTooLarge
from cocyclelab.lyapunov import QuadratureSpec
from cocyclelab.torus import Frequency, frequency_multiple

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


def rows_product(mats, U):
    """mats @ U written out as the kernel's rows, M_i0 (row 0 of U) +
    M_i1 (row 1 of U), elementwise."""
    return mats[:, :, :1] * U[:, :1, :] + mats[:, :, 1:] * U[:, 1:, :]


def ref_read(U, esum, n):
    """(1/n) ln ||A_n|| from U = 2^-esum A_n, one math.log per node."""
    logs = np.array([math.log(s) for s in ref_op_norm(U).tolist()])
    return logs / n + esum / n * math.log(2.0)


def ref_iterate(A, omega_vec, reads, X, product=np.matmul):
    """(avg, steps) of the orbits from the m nodes X by the (m, 2, 2)
    matmul loop, one eval_many call per step: avg[r] is the read after
    reads[r] steps (reads increasing), and steps[i] the steps node i
    completed before its product's mx fell below UNDERFLOW_FLOOR or left
    the finite numbers (the orbit length if never); from then on it
    carries the identity, adds nothing to its sum and reads -inf."""
    m = X.shape[0]
    N = reads[-1]
    U = np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2)).copy()
    esum = np.zeros(m, dtype=np.int64)
    steps = np.full(m, N)
    avg = np.empty((len(reads), m))
    pts = X.copy()
    for j in range(N):
        U = product(A.eval_many(pts), U)
        mx = np.maximum(np.abs(U.real), np.abs(U.imag)).max(axis=(1, 2))
        died = ~(np.isfinite(mx) & (mx >= UNDERFLOW_FLOOR)) & (steps == N)
        steps[died] = j
        dead = steps < N
        U[dead] = np.eye(2)
        mx[dead] = 1.0
        e = np.frexp(mx)[1]
        U = U * np.ldexp(1.0, 1 - e)[:, None, None]
        esum += e - 1
        if j + 1 in reads:
            avg[reads.index(j + 1)] = np.where(dead, -np.inf, ref_read(U, esum, j + 1))
        pts = _frac(pts + omega_vec)
    return avg, steps


def ref_partial_sums(A, omega_vec, N, x):
    """ln ||A_n(x)|| for n = 1, 2, ... by the scalar 2x2 loop, as
    ln ||U|| + e ln 2 with U = 2^-e A_n; stops at underflow."""
    pts = np.asarray(x, dtype=float).reshape(1, -1)
    U = np.eye(2, dtype=complex)
    e = 0
    sums = []
    for _ in range(N):
        U = A.eval_many(pts)[0] @ U
        mx = float(np.max(np.maximum(np.abs(U.real), np.abs(U.imag))))
        if not math.isfinite(mx) or mx < UNDERFLOW_FLOOR:
            return sums, True
        shift = 1 - math.frexp(mx)[1]
        U = U * math.ldexp(1.0, shift)
        e -= shift
        sums.append(math.log(float(ref_op_norm(U[None])[0])) + e * math.log(2.0))
        pts = _frac(pts + omega_vec)
    return sums, False


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
    want, steps = ref_iterate(C.A, C.omega.as_array(), [64], X)
    got, under = iterate_log_norm_many(C, 64, X)
    assert np.array_equal(under, steps < 64)
    assert np.array_equal(got, want[0])


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("name", sorted(CLOSE))
def test_kernel_matches_matmul_loop_closely(name, workers):
    C = CLOSE[name]()
    X = _nodes(C.d)
    want, steps = ref_iterate(C.A, C.omega.as_array(), [64], X)
    got, under = iterate_log_norm_many(C, 64, X)
    assert np.array_equal(under, steps < 64)
    np.testing.assert_allclose(got, want[0], rtol=1e-12, atol=0.0)


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
    want_avg, steps = ref_iterate(C.A, C.omega.as_array(), [40], X)
    want_under = steps < 40
    assert want_under.any() and not want_under.all()
    avg, under = iterate_log_norm_many(C, 40, X)
    assert np.array_equal(under, want_under)
    keep = ~under
    np.testing.assert_allclose(avg[keep], want_avg[0, keep], rtol=1e-12, atol=0.0)
    alone, alone_under = iterate_log_norm_many(C, 40, X[keep])
    assert not alone_under.any()
    assert np.array_equal(avg[keep], alone)


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
def test_excision_record_is_one_count_in_every_report(workers):
    # An excised node reads -inf; the kernel's flags, le_table's
    # excised_mass and a profile's excised nodes all count those values.
    C = _excising(G1, floor=0.05)
    M, Ns = 1024, [8, 1, 64, 32]
    X = dyadic_grid(1, M)
    avg, under = iterate_log_norm_many(C, max(Ns), X, at=Ns)
    table = lyapunov.le_table(C, Ns, SimpleNamespace(nodes=lambda d: X))
    profiles = deviation._profiles(C, Ns, M, renormalize_first=False)
    counts = [int(np.count_nonzero(a == -np.inf)) for a in avg]
    assert counts == [274, 34, 1012, 866]
    for a, u, est, prof, n in zip(avg, under, table, profiles, counts):
        assert np.array_equal(u, a == -np.inf)
        assert est.excised_mass * M == n
        assert prof.values.tobytes() == a.tobytes()
        assert M - np.count_nonzero(prof.retained) == n


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


def test_empty_batch_reads_nothing():
    C = Cocycle(amo(3.0, 0.3), G1)
    avg, under = iterate_log_norm_many(C, 5, np.zeros((0, 1)))
    assert avg.shape == under.shape == (0,)
    avg, under = iterate_log_norm_many(C, 5, np.zeros((0, 1)), at=(2, 5))
    assert avg.shape == under.shape == (2, 0)


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
# given step, so the partial sums are the whole orbit, empty, or cut short.
# Reading one orbit at every step count n gives the partial sums n * avg[n].
@pytest.mark.parametrize("x, dies_at", [(0.15, None), (0.3, 0), (0.4, 28)])
def test_collect_partial_matches_scalar_loop(x, dies_at):
    C = _excising(G1, floor=0.05)
    want_sums, want_under = ref_partial_sums(C.A, C.omega.as_array(), 40, (x,))
    assert want_under == (dies_at is not None)
    assert len(want_sums) == (40 if dies_at is None else dies_at)
    avg, under = iterate_log_norm_many(C, 40, np.array([[x]]), at=range(1, 41))
    ns = np.arange(1, 41)
    assert np.array_equal(under[:, 0], ns > len(want_sums))
    alive = ns[~under[:, 0]]
    got = alive * avg[alive - 1, 0]
    want = np.array(want_sums)[alive - 1]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


# A power-of-two constant reads ln 2 exactly at every N, not only at powers
# of two: diag(2, 1/2) keeps U = diag(1, 4^-n), whose computed norm is 1, and
# the exponent sum n, so a read is 0/n + (n/n) ln 2. In complex arithmetic
# too (i diag(2, 1/2)), and with nodes split across workers.
@pytest.mark.parametrize("workers", [1, 2], indirect=True)
@pytest.mark.parametrize("unit", [1.0, 1j])
def test_power_of_two_constant_reads_log_two_at_every_N(unit, workers):
    C = Cocycle(TrigPolyMatrix.constant(1, np.diag([2.0, 0.5]) * unit), G1)
    N = 1100  # past n = 537, where 4^-n leaves the normal range
    avg, under = iterate_log_norm_many(C, N, _nodes(1, m=5), at=range(1, N + 1))
    assert not under.any()
    assert np.all(avg == math.log(2.0))


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


# Batches of about 2048 rows stay on one worker: two ran slower there (see
# MIN_ROWS_PER_WORKER).
@pytest.mark.parametrize("rows, seen", [(512, []), (2047, []), (2048, []), (65536, [2]),
                                        (2 * _util.MIN_ROWS_PER_WORKER - 1, []),
                                        (2 * _util.MIN_ROWS_PER_WORKER, [2])])
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
    if seen:  # one worker walks BLOCK_ROWS blocks, a short one last
        assert min(parts) >= _util.MIN_ROWS_PER_WORKER


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
# The look-ahead kernel against one evaluation per step
# ---------------------------------------------------------------------------

class _COrderEvaluator:
    """An outside evaluator: the values of base, copied to C order."""

    def __init__(self, base):
        self.base, self.d = base, base.d

    def eval_many(self, X):
        return np.ascontiguousarray(self.base.eval_many(X))


# Every node dies at its first step (largest entry modulus 1e-305 <
# UNDERFLOW_FLOOR), or lives (1e-200 stays above the floor, so no node is
# excised).
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
    want_avg, want_steps = ref_iterate(C.A, C.omega.as_array(), reads, X,
                                       product=rows_product)
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


def _harmonics(d, terms, c0=0.0):
    """c0 + sum of ck e^{2 pi i k.x} + conj(ck) e^{-2 pi i k.x} over the
    pairs (k, ck) in terms, distinct up to sign and none of them 0: real by
    construction."""
    coeffs = {(0,) * d: c0}
    for k, ck in terms:
        coeffs[tuple(k)] = ck
        coeffs[tuple(-v for v in k)] = ck.conjugate()
    return TrigPoly(d, coeffs)


def _harmonic(d, k, ck, c0=0.0):
    """_harmonics with the one harmonic k (c0 alone when k is 0)."""
    return _harmonics(d, [(k, ck)] if any(k) else [], c0)


_phase = st.complex_numbers(min_magnitude=0.05, max_magnitude=3.0,
                            allow_nan=False, allow_infinity=False)


@st.composite
def _real_poly(draw, d, min_size=0):
    """A real-by-construction trig polynomial: c0 and up to three
    harmonics, their indices distinct up to sign, with complex c_k."""
    ks = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d).filter(any),
                       min_size=min_size, max_size=3,
                       unique_by=lambda k: max(k, tuple(-v for v in k))))
    return _harmonics(d, [(k, draw(_phase)) for k in ks],
                      draw(st.floats(-2, 2)))


@st.composite
def real_cocycles(draw):
    """A cocycle whose matrix evaluates in float64: a Schrodinger matrix
    whose potential has one to three harmonics with complex c_k, a Jacobi
    matrix (q = 1) whose a has zeros, or a matrix of four entries of up to
    three harmonics each, with their own k, scaled to either tail of the
    closed-form norm; raw or renormalized, with nodes, an orbit length and
    reads."""
    d = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
    kind = draw(st.sampled_from(["schrodinger", "jacobi", "matrix"]))
    omega = Frequency(tuple(draw(st.sampled_from([0.0, 0.5, GOLDEN, SILVER]))
                            for _ in range(d)))
    E = draw(st.floats(-3, 3))
    if kind == "schrodinger":
        A = schrodinger(draw(_real_poly(d, min_size=1)), E, d=d)
    elif kind == "jacobi":
        c = draw(_phase)
        # |a0| <= 2|c|: a vanishes on a hypersurface of the torus
        a = _harmonic(d, draw(index), c, draw(st.floats(-2, 2)) * abs(c))
        A = jacobi(_harmonic(d, draw(index), draw(_phase)), a, E, omega)
    else:
        entries = [draw(_real_poly(d)) for _ in range(4)]
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
    # 1e150: a step shifts the exponent by up to about 500 (|v| <= 2e150),
    # and every read still lands in [1, 2)
    A = amo(lam, 0.0)
    C = Cocycle(RenormalizedMatrix(A) if renorm else A, G1)
    _assert_real_run_matches_complex(C, 64, _nodes(1, m=300), [1, 7, 64])


class _FullComplex:
    """The complex einsum over a trig-polynomial matrix's whole phase
    table, imaginary rounding residue included, as a C-order stack."""

    def __init__(self, base):
        self.base, self.d = base, base.d

    def eval_many(self, X):
        A = self.base
        return np.einsum("nm,nij->mij", _phases(X, A._ks, A._half), A._cs)


# the orbit-wide benchmark's ldt cocycle at seed 3, a 1-d Schrodinger
# matrix with three harmonics and a two-site Jacobi block: several
# harmonics per entry, so the complex einsum leaves imaginary residue
SEVERAL_HARMONICS = {
    "ldt-schrodinger-2d": lambda: (
        schrodinger(_v2(), -0.5240707458162173, d=2),
        Frequency(((math.sqrt(13.0) - 3.0) / 2.0, math.sqrt(10.0) - 3.0)),
        grid(2, 96, 0.5), 16),
    "schrodinger-3-harmonics": lambda: (
        schrodinger(TrigPoly.cosine((1,), 2.0) + TrigPoly.cosine((2,), 0.7)
                    + TrigPoly.sine((3,), 0.4), 0.3),
        G1, grid(1, 512, 0.5), 200),
    "jacobi-periodic-q2": lambda: (
        jacobi_periodic(TrigPoly.cosine((1,), 4.0),
                        _harmonic(1, (1,), 0.25, 1.0), (0.0, 1.0), 0.3, G1),
        frequency_multiple(G1, 2), grid(1, 512, 0.5), 200),
}


@pytest.mark.parametrize("name", sorted(SEVERAL_HARMONICS))
def test_real_arithmetic_matches_full_complex_evaluation(name):
    """The float64 kernel on a matrix with several harmonics per entry
    gives the bytes of the complex kernel on the full complex evaluation,
    whose imaginary residue it drops, at 1 and 2 workers."""
    A, omega, X, N = SEVERAL_HARMONICS[name]()
    assert A.eval_many(X[:1]).dtype == np.float64
    assert np.any(_FullComplex(A).eval_many(X).imag != 0)
    at = [1, N // 2, N]
    want, want_under = iterate_log_norm_many(Cocycle(_FullComplex(A), omega),
                                             N, X, at=at)
    for workers in (1, 2):
        got, under = _run_at_workers(Cocycle(A, omega), N, X, at, workers)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(under, want_under)


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
        step_2x2(mats, U, real_out)
        step_2x2(mats.astype(complex), U.astype(complex), complex_out)
    s, s_c = op_norm_2x2(real_out), op_norm_2x2(complex_out)
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
    for n in (1, 2, 3, 5):
        assert math.copysign(1.0, _util.pairwise_total(np.full(n, -0.0))) == -1.0
    assert math.copysign(1.0, _util.pairwise_total(a[:0])) == 1.0


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
