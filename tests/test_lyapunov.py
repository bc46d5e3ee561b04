import math
import os

import numpy as np
import pytest

from cocyclelab import _util
from cocyclelab._util import set_max_workers
from cocyclelab.cocycle import (
    Cocycle,
    TrigPoly,
    TrigPolyMatrix,
    DiscontinuityExample,
    amo,
    iterate_log_norm_many,
    jacobi,
    renormalize,
    schrodinger,
)
from cocyclelab.errors import AllSamplesSingular, IdenticallySingular, ScanTooLarge
from cocyclelab.lyapunov import (
    DEFAULT_CLIP_FLOOR,
    LEEstimate,
    QuadratureSpec,
    L_N_renormalized,
    L_prime_N,
    default_quadrature,
    det_log_integral,
    _mean_and_stderr,
    finite_scale_modulus,
    le_extrapolate,
    le_table,
    le_table_to_csv,
)
from cocyclelab.multiscale import ladder_verify, liouville_ladder
from cocyclelab.torus import Frequency

GOLDEN = 0.6180339887
GRID = lambda m: QuadratureSpec(kind="uniform-grid", points_per_dim=m)


def const_cocycle(mat, om=GOLDEN):
    return Cocycle(TrigPolyMatrix.constant(1, mat), Frequency((om,)))


class TestQuadratureSpec:
    def test_grid_nodes_are_midpoints(self):
        X = GRID(4).nodes(1)
        assert np.array_equal(X.ravel(), np.array([1, 3, 5, 7]) / 8)

    def test_grid_count_in_two_dims(self):
        q = QuadratureSpec(kind="uniform-grid", points_per_dim=8)
        assert q.nodes(2).shape == (64, 2)

    def test_defaults_by_dimension(self):
        assert default_quadrature(1).points_per_dim == 4096
        assert default_quadrature(2).points_per_dim == 128
        q3 = default_quadrature(3)
        assert q3.kind == "low-discrepancy" and q3.total_points == 65536

    def test_halton_in_unit_cube(self):
        X = QuadratureSpec(kind="low-discrepancy", total_points=500).nodes(3)
        assert X.shape == (500, 3)
        assert (X >= 0).all() and (X < 1).all()

    def test_monte_carlo_seeded(self):
        q = QuadratureSpec(kind="monte-carlo", total_points=64, seed=5)
        assert np.array_equal(q.nodes(2), q.nodes(2))

    def test_node_guard(self):
        with pytest.raises(ScanTooLarge):
            QuadratureSpec(kind="uniform-grid", points_per_dim=4096).nodes(3)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(kind="gauss", points_per_dim=4)
        with pytest.raises(ValueError):
            QuadratureSpec(kind="uniform-grid")
        with pytest.raises(ValueError):
            QuadratureSpec(kind="monte-carlo")
        with pytest.raises(ValueError):
            QuadratureSpec(kind="uniform-grid", points_per_dim=4, clip_floor=0.0)


class TestLPrimeN:
    def test_constant_diagonal_is_log_two(self):
        est = L_prime_N(const_cocycle([[2.0, 0], [0, 0.5]]), 37, GRID(64))
        assert est.value == pytest.approx(math.log(2.0), abs=1e-12)
        assert est.excised_mass == 0.0

    def test_resonant_discontinuity_matches_closed_form(self):
        # omega = 0: the torus average of e^{-2 pi}|cos 2 pi x| is
        # (2/pi) e^{-2 pi}, independent of N
        c = Cocycle(DiscontinuityExample((1,)), Frequency((0.0,)))
        want = (2.0 / math.pi) * math.exp(-2.0 * math.pi)
        for N in (1, 10, 100):
            est = L_prime_N(c, N, GRID(4096))
            assert est.value == pytest.approx(want, abs=1e-6)

    def test_irrational_discontinuity_decays(self):
        c = Cocycle(DiscontinuityExample((1,)), Frequency((GOLDEN,)))
        small = L_prime_N(c, 200, GRID(1024)).value
        smaller = L_prime_N(c, 800, GRID(1024)).value
        assert small <= 1e-2
        assert smaller < small

    def test_all_nodes_singular_raises(self):
        c = const_cocycle([[0, 1], [0, 0]])
        with pytest.raises(AllSamplesSingular):
            L_prime_N(c, 2, GRID(16))

    def test_stderr_zero_for_constant(self):
        est = L_prime_N(const_cocycle(np.eye(2) * 3), 5, GRID(32))
        assert est.stderr == pytest.approx(0.0, abs=1e-13)

    def test_subadditive_across_doubling(self):
        c = Cocycle(amo(2.0, 0.3), Frequency((GOLDEN,)))
        a = L_prime_N(c, 25, GRID(1024))
        b = L_prime_N(c, 50, GRID(1024))
        assert b.value <= a.value + 1e-4


class TestDetLogIntegral:
    def test_sl2_is_zero(self):
        r = det_log_integral(schrodinger(TrigPoly.cosine((1,), 2.0), 0.7), GRID(256))
        assert r.value == 0.0
        assert r.clipped_mass == 0.0

    def test_constant_scalar_matrix(self):
        A = TrigPolyMatrix.constant(1, np.eye(2) * math.e)
        r = det_log_integral(A, GRID(64))
        assert r.value == pytest.approx(2.0, abs=1e-12)

    def test_jacobi_cosine_hits_minus_two_log_two(self):
        om = Frequency((GOLDEN,))
        A = jacobi(0.0, TrigPoly.cosine((1,)), 0.5, om)
        r = det_log_integral(A, GRID(2**14))
        assert r.value == pytest.approx(-2.0 * math.log(2.0), abs=1e-3)

    def test_clipped_mass_decreases_with_floor(self):
        om = Frequency((GOLDEN,))
        A = jacobi(0.0, TrigPoly.cosine((1,)), 0.5, om)
        coarse = det_log_integral(
            A, QuadratureSpec(kind="uniform-grid", points_per_dim=4096,
                              clip_floor=0.05))
        fine = det_log_integral(
            A, QuadratureSpec(kind="uniform-grid", points_per_dim=4096,
                              clip_floor=DEFAULT_CLIP_FLOOR))
        assert coarse.clipped_mass > 0.0
        assert fine.clipped_mass == 0.0

    def test_identically_singular_rejected(self):
        A = TrigPolyMatrix(1, {(0,): np.array([[1.0, 0], [0, 0]])}, rho=0.5)
        with pytest.raises(IdenticallySingular):
            det_log_integral(A, GRID(16))


class TestRenormalizationIdentity:
    def test_sl2_routes_agree_exactly(self):
        c = Cocycle(amo(1.5, 0.2), Frequency((GOLDEN,)))
        lp = L_prime_N(c, 30, GRID(512))
        ln = L_N_renormalized(c, 30, GRID(512))
        assert ln.value == lp.value

    def test_constant_det_shifts_by_log_three(self):
        A = schrodinger(0.0, 3.0, d=1).scaled(3.0)
        c = Cocycle(A, Frequency((GOLDEN,)))
        lp = L_prime_N(c, 40, GRID(256))
        ln = L_N_renormalized(c, 40, GRID(256))
        assert ln.value - lp.value == pytest.approx(-math.log(3.0), abs=1e-12)

    def test_jacobi_gap_is_log_two(self):
        om = Frequency((GOLDEN,))
        c = Cocycle(jacobi(0.0, TrigPoly.cosine((1,)), 0.5, om), om)
        lp = L_prime_N(c, 200, GRID(4096))
        ln = L_N_renormalized(c, 200, GRID(4096))
        assert ln.value - lp.value == pytest.approx(math.log(2.0), abs=2e-3)

    def test_three_way_identity_rational_frequency(self):
        # q = 16 divides the grid size, so the grid is shift-closed and the
        # identity holds to rounding, not just to quadrature error
        om = Frequency((3.0 / 16.0,))
        A = jacobi(TrigPoly.cosine((1,), 0.7), TrigPoly(1, {(0,): 1.0, (1,): 0.3}),
                   0.4, om)
        c = Cocycle(A, om)
        q = GRID(256)
        lp = L_prime_N(c, 64, q)
        ln = L_N_renormalized(c, 64, q)
        half_det = 0.5 * det_log_integral(A, q).value
        assert ln.value - lp.value + half_det == pytest.approx(0.0, abs=1e-10)


class TestExtrapolation:
    def test_constant_cocycle_increments_vanish(self):
        c = const_cocycle([[2.0, 0], [0, 0.5]])
        r = le_extrapolate(c, (100, 200, 400), GRID(64))
        assert r.increments == [0.0, 0.0]
        assert r.limit == r.table[0].value

    def test_amo_respects_coupling_lower_bound(self):
        c = Cocycle(amo(3.0, 0.0), Frequency((GOLDEN,)))
        r = le_extrapolate(c, (100, 200, 400, 800), GRID(1024))
        assert r.limit >= math.log(3.0) - 0.05

    def test_elliptic_constant_goes_to_zero(self):
        c = const_cocycle([[1.0, -1.0], [1.0, 0.0]])
        r = le_extrapolate(c, (50, 100, 200, 400), GRID(8))
        assert r.limit <= 0.02

    def test_schedule_must_increase(self):
        c = const_cocycle(np.eye(2))
        with pytest.raises(ValueError):
            le_extrapolate(c, (10, 10), GRID(8))


class TestFiniteScaleModulus:
    def test_zero_perturbation(self):
        A = TrigPolyMatrix.constant(1, [[2.0, 0], [0, 0.5]])
        c = Cocycle(A, Frequency((GOLDEN,)))
        t = finite_scale_modulus(c, 20, [A], GRID(32))
        assert t.rows[0].delta == 0.0
        assert t.rows[0].diff == 0.0

    def test_diagonal_shift_bounded_by_perturbation(self):
        A = TrigPolyMatrix.constant(1, [[2.0, 0], [0, 0.5]])
        B = TrigPolyMatrix.constant(1, [[2.001, 0], [0, 0.501]])
        c = Cocycle(A, Frequency((GOLDEN,)))
        t = finite_scale_modulus(c, 20, [B], GRID(32))
        assert t.rows[0].delta == pytest.approx(1e-3, abs=1e-12)
        assert t.rows[0].diff <= 1e-3

    def test_jacobi_perturbation_shrinks(self):
        om = Frequency((GOLDEN,))
        a = TrigPoly.cosine((1,))
        A = jacobi(0.0, a, 0.5, om)
        pert = [jacobi(0.0, a + TrigPoly.constant(1, eps), 0.5, om)
                for eps in (0.01, 0.005)]
        t = finite_scale_modulus(Cocycle(A, om), 60, pert, GRID(1024))
        assert t.rows[1].diff < t.rows[0].diff
        assert t.rows[1].delta == pytest.approx(0.005, abs=1e-12)

    def test_envelope_is_monotone(self):
        A = TrigPolyMatrix.constant(1, [[2.0, 0], [0, 0.5]])
        pert = [TrigPolyMatrix.constant(1, [[2 + e, 0], [0, 0.5]])
                for e in (0.03, 0.01, 0.02)]
        t = finite_scale_modulus(Cocycle(A, Frequency((GOLDEN,))), 10, pert, GRID(16))
        deltas = [r.delta for r in t.envelope]
        vals = [r.diff for r in t.envelope]
        assert deltas == sorted(deltas)
        assert vals == sorted(vals)

    def test_rho_mismatch_rejected(self):
        A = amo(1.0, 0.0, rho=0.5)
        B = amo(1.0, 0.0, rho=0.25)
        c = Cocycle(A, Frequency((GOLDEN,)))
        with pytest.raises(ValueError):
            finite_scale_modulus(c, 5, [B], GRID(16))


class TestCSV:
    def test_header_and_formatting(self):
        q = GRID(16)
        rows = [LEEstimate(N=10, value=1.0 / 3.0, excised_mass=0.0, quad=q,
                           stderr=0.25)]
        text = le_table_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "N,value,excised_mass,stderr"
        cells = lines[1].split(",")
        assert cells[0] == "10"
        assert float(cells[1]) == 1.0 / 3.0
        assert cells[2] == "0" and float(cells[3]) == 0.25


# ---------------------------------------------------------------------------
# le_table against the per-N loop it replaced
# ---------------------------------------------------------------------------

def ref_le_table(C, Ns, quad, renormalized=False):
    """One orbit per scale, as L_N_renormalized and L_prime_N ran before."""
    if renormalized:
        C = Cocycle(renormalize(C.A), C.omega)
    X = quad.nodes(C.d)
    out = []
    for N in Ns:
        avg, under = iterate_log_norm_many(C, N, X)
        keep = ~under
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            raise AllSamplesSingular(f"all {X.shape[0]} nodes underflowed at N={N}")
        value, stderr = _mean_and_stderr(avg[keep])
        out.append(LEEstimate(N=N, value=value, excised_mass=1.0 - kept / X.shape[0],
                              quad=quad, stderr=stderr))
    return out


def _bits(table):
    return [(e.N, e.value.hex(), e.excised_mass.hex(), e.stderr.hex()) for e in table]


G1 = Frequency(((math.sqrt(5.0) - 1.0) / 2.0,))


def _excising(floor):
    """det A(x) = cos(2 pi x) + 0.3: the renormalized cocycle kills the nodes
    whose orbit meets |det| < floor, at different steps for different nodes."""
    a = TrigPoly.cosine((1,), 1.0) + TrigPoly.constant(1, 0.3)
    e11 = TrigPoly.constant(1, 0.4) - TrigPoly.cosine((1,), 3.0)
    A = TrigPolyMatrix.from_entries(e11, TrigPoly.constant(1, -1.0), a,
                                    TrigPoly(1, {}), rho=0.5)
    return Cocycle(renormalize(A, floor=floor), G1)


def _jacobi_g1():
    return Cocycle(jacobi(TrigPoly.cosine((1,), 4.0),
                          TrigPoly(1, {(0,): 1.0, (1,): 0.25 + 0.1j, (-1,): 0.25}),
                          0.3, G1), G1)


@pytest.fixture
def workers(request, monkeypatch):
    """Split even small node sets across the given number of workers."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(_util, "MIN_ROWS_PER_WORKER", 1)
    set_max_workers(request.param)
    yield request.param
    set_max_workers(1)


LE_TABLE_CASES = {
    "amo-raw": (lambda: Cocycle(amo(3.0, 0.3), G1), False),
    "jacobi-renormalized": (_jacobi_g1, True),
    "excising": (lambda: _excising(0.05), False),
}


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("Ns", [[1000, 250, 250, 2000, 1], [16], [1, 8, 4, 32, 8]],
                         ids=["mixed", "single", "short"])
@pytest.mark.parametrize("case", sorted(LE_TABLE_CASES))
def test_le_table_matches_per_N_loop_bitwise(case, Ns, workers):
    make, renormalized = LE_TABLE_CASES[case]
    C, quad = make(), GRID(64)
    try:
        want = ref_le_table(C, Ns, quad, renormalized)
    except AllSamplesSingular as e:
        with pytest.raises(AllSamplesSingular) as got:
            le_table(C, Ns, quad, renormalized=renormalized)
        assert str(got.value) == str(e)
        return
    table = le_table(C, Ns, quad, renormalized=renormalized)
    assert _bits(table) == _bits(want)
    if case == "excising" and Ns != [16]:
        assert len({e.excised_mass for e in table}) > 1


def test_le_table_reports_the_first_singular_N_in_input_order():
    # On the excising cocycle every node is dead by step 250 and a few at
    # step 1, so 2000 is the first entry with no node left.
    C, quad = _excising(0.05), GRID(64)
    Ns = [1, 2000, 250]
    with pytest.raises(AllSamplesSingular) as want:
        ref_le_table(C, Ns, quad)
    with pytest.raises(AllSamplesSingular) as got:
        le_table(C, Ns, quad)
    assert str(got.value) == str(want.value) == "all 64 nodes underflowed at N=2000"


def test_le_table_errors():
    C = Cocycle(amo(3.0, 0.3), G1)
    assert le_table(C, [], GRID(8)) == []
    with pytest.raises(ValueError, match="N must be >= 1"):
        le_table(C, [4, 0], GRID(8))
    with pytest.raises(IdenticallySingular):
        le_table(const_cocycle([[0, 1], [0, 0]]), [2], GRID(8), renormalized=True)


def _singular_at_half():
    # det = 1 + cos(2 pi x) is exactly 0 at x = 1/2, a node of every odd grid
    A = TrigPolyMatrix.from_entries(
        TrigPoly.constant(1, 1.0) + TrigPoly.cosine((1,)), TrigPoly.constant(1, 0.5),
        TrigPoly(1, {}), TrigPoly.constant(1, 1.0), rho=0.5)
    return Cocycle(A, Frequency((GOLDEN,)))


# (value, stderr, excised_mass) as float.hex, computed when L_N_renormalized
# still renormalized with its own floor argument and called le_table itself
RENORMALIZED_BITS = [
    (_jacobi_g1, 40, GRID(64),
     ("0x1.9618c5ce55c38p-1", "0x1.511c7973e4900p-8", "0x0.0p+0")),
    (lambda: Cocycle(jacobi(TrigPoly.cosine((1,), 0.7),
                            TrigPoly(1, {(0,): 1.0, (1,): 0.3}), 0.4,
                            Frequency((3 / 16,))), Frequency((3 / 16,))),
     64, GRID(256),
     ("0x1.a9152d0f2f00cp-10", "0x1.20137a1ee36b6p-15", "0x0.0p+0")),
    (lambda: Cocycle(schrodinger(TrigPoly.cosine((1, 0), 2.0)
                                 + TrigPoly.cosine((0, 1), 1.0), 0.2).scaled(1.5 + 0.5j),
                     Frequency((GOLDEN, 2 ** 0.5 - 1))),
     12, QuadratureSpec(kind="low-discrepancy", total_points=300),
     ("0x1.26935c59ae8a0p-2", "0x1.3d011d7ad4970p-7", "0x0.0p+0")),
    (_singular_at_half, 5, GRID(9),
     ("0x1.a1d2d23720d10p-2", "0x1.4f79fc4ab5b4dp-5", "0x1.c71c71c71c720p-4")),
]


@pytest.mark.parametrize("make, N, quad, want", RENORMALIZED_BITS)
def test_L_N_renormalized_bits_unchanged(make, N, quad, want):
    e = L_N_renormalized(make(), N, quad)
    assert (e.value.hex(), e.stderr.hex(), e.excised_mass.hex()) == want


def test_one_scale_estimators_are_le_table_entries():
    C, quad = _jacobi_g1(), GRID(64)
    assert _bits([L_prime_N(C, 40, quad)]) == _bits(ref_le_table(C, [40], quad))
    assert _bits([L_N_renormalized(C, 40, quad)]) == _bits(
        ref_le_table(C, [40], quad, renormalized=True))


@pytest.mark.parametrize("workers", [1, 3], indirect=True)
@pytest.mark.parametrize("renormalized", [False, True])
def test_ladder_verify_estimates_match_per_N_loop(renormalized, workers):
    C, quad = Cocycle(_jacobi_g1().A, Frequency((0.5,))), GRID(64)
    lad = liouville_ladder(16, 2, Frequency((0.5,)), rho=1.0, kappa=0.5, C=2.0,
                           max_scale=1024)
    v = ladder_verify(C, lad, quad=quad, renormalized=renormalized)
    want = ref_le_table(C, [int(n) for n in lad.scales], quad, renormalized)
    assert list(v.estimates) == [e.N for e in want]
    assert [x.hex() for x in v.estimates.values()] == [e.value.hex() for e in want]


@pytest.mark.parametrize("workers", [1, 2], indirect=True)
def test_le_extrapolate_table_matches_per_N_loop(workers):
    C, quad = _jacobi_g1(), GRID(64)
    schedule = (1, 10, 100, 400)
    r = le_extrapolate(C, schedule, quad)
    want = ref_le_table(C, schedule, quad)
    assert _bits(r.table) == _bits(want)
    assert r.increments == [abs(b.value - a.value) for a, b in zip(want, want[1:])]
