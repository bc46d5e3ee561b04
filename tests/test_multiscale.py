import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab._util import set_max_workers, to_json_text
from cocyclelab.cocycle import (
    Cocycle,
    DiscontinuityExample,
    TrigPoly,
    TrigPolyMatrix,
    amo,
    jacobi,
    schrodinger,
)
from cocyclelab.errors import (
    GateFailed,
    InconsistentDelta,
    NotUnimodular,
    PreconditionFailed,
)
from cocyclelab.lyapunov import QuadratureSpec
from cocyclelab.multiscale import (
    ScaleLadder,
    cov_invariance_check,
    induction_schedule,
    ladder_verify,
    liouville_gate,
    liouville_ladder,
    mixed_gate,
)
from cocyclelab.torus import Automorphism, Frequency, min_dot_norm

GOLDEN = 0.6180339887
HALF = Frequency((0.5,))


def constant_diag(top=2.0):
    z = TrigPoly.constant(1, 0.0)
    return TrigPolyMatrix(TrigPoly.constant(1, top), z, z,
                          TrigPoly.constant(1, 1.0 / top), rho=1.0)


def small_resonant_ladder(max_scale=128):
    # q0 * kappa^-C = 2 * 4 = 8 < 16 = N0, so both gate flags hold
    return liouville_ladder(16, 2, HALF, rho=1.0, kappa=0.5, C=2.0,
                            max_scale=max_scale)


class TestLiouvilleGate:
    def test_exact_resonance_opens_everything(self):
        g = liouville_gate(8192, 2, HALF, rho=0.5, kappa=0.2, C=5.0)
        assert g.flags["eq:LiouvCondition"]
        assert g.flags["eq:N0LargeCondition"]
        assert g.max_scale == math.inf
        assert g.passed

    def test_golden_plugin_arithmetic(self):
        # the inequalities are evaluated literally; at these parameters both
        # are false and the report says so
        g = liouville_gate(10**4, 8, Frequency((GOLDEN,)), rho=0.5,
                           kappa=0.2, C=5.0)
        fn = g.params["freq_norm"]
        assert fn == pytest.approx(0.0557, abs=5e-4)
        assert g.flags["eq:LiouvCondition"] == (fn < 0.2**5 * 0.5**4 * 8 / 10**4)
        assert g.flags["eq:N0LargeCondition"] == (10**4 * 0.2**5 > 8)
        assert not g.passed
        assert g.max_scale == pytest.approx(
            0.2**2.5 * 0.25 * math.sqrt(10**4 * 8 / fn))

    def test_kappa_one_rejected(self):
        with pytest.raises(ValueError):
            liouville_gate(100, 2, HALF, rho=0.5, kappa=1.0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            liouville_gate(100, 0, HALF, rho=0.5, kappa=0.5)
        with pytest.raises(ValueError):
            liouville_gate(0, 1, HALF, rho=0.5, kappa=0.5)
        with pytest.raises(ValueError):
            liouville_gate(100, 2, HALF, rho=-1.0, kappa=0.5)
        with pytest.raises(ValueError):
            liouville_gate(100, 2, HALF, rho=0.5, kappa=0.5, C=0.0)

    @given(n_exp=st.integers(min_value=4, max_value=20),
           q0=st.integers(min_value=1, max_value=16),
           kappa=st.floats(min_value=0.05, max_value=0.95),
           rho=st.floats(min_value=0.1, max_value=1.0))
    def test_admissible_scale_quadruples_exactly(self, n_exp, q0, kappa, rho):
        # sqrt(4 x) = 2 sqrt(x) holds exactly in binary floating point, so
        # quadrupling N0 doubles the admissible scale bit-for-bit
        om = Frequency((GOLDEN,))
        a = liouville_gate(2**n_exp, q0, om, rho=rho, kappa=kappa)
        b = liouville_gate(2**(n_exp + 2), q0, om, rho=rho, kappa=kappa)
        assert b.max_scale == 2.0 * a.max_scale


class TestLiouvilleLadder:
    def test_near_resonant_concrete_ladder(self):
        om = Frequency((0.5 + 1e-9,))
        lad = liouville_ladder(8192, 2, om, rho=0.5, kappa=0.2, C=5.0)
        assert lad.scales == (8192, 16384)
        assert lad.kind == "liouville"
        step = lad.step_flags[1]
        assert step["truncated_by"] == "cap"
        assert step["scale"] <= step["recursion_bound"]
        assert step["scale"] < step["cap"]

    def test_recursion_replay_bit_for_bit(self):
        om = Frequency((0.5 + 1e-9,))
        N0, q0, rho, kappa, C = 8192, 2, 0.5, 0.2, 5.0
        lad = liouville_ladder(N0, q0, om, rho=rho, kappa=kappa, C=C)
        fn = liouville_gate(N0, q0, om, rho, kappa, C).params["freq_norm"]
        cap = kappa**C * rho**4 * q0 / fn
        replay = [N0]
        while True:
            prev = replay[-1]
            rhs = prev ** (2.0 / 3.0) * (q0 * rho**4 / fn) ** (1.0 / 3.0)
            nxt = prev
            while (nxt * 2) <= rhs and (nxt * 2) < cap:
                nxt *= 2
            if nxt == prev:
                break
            replay.append(nxt)
        assert list(lad.scales) == replay

    def test_gate_failure_raises(self):
        with pytest.raises(GateFailed, match="eq:"):
            liouville_ladder(8192, 8, Frequency((GOLDEN,)), rho=0.5,
                             kappa=0.2, C=5.0)

    def test_resonant_needs_max_scale(self):
        with pytest.raises(PreconditionFailed):
            liouville_ladder(8192, 2, HALF, rho=0.5, kappa=0.2, C=5.0)

    def test_resonant_returns_requested_scale(self):
        lad = liouville_ladder(8192, 2, HALF, rho=0.5, kappa=0.2, C=5.0,
                               max_scale=10**5)
        assert lad.scales == (8192, 65536)
        assert lad.step_flags[-1]["truncated_by"] == "max_scale"

    def test_resonant_max_scale_below_base(self):
        with pytest.raises(ValueError):
            liouville_ladder(8192, 2, HALF, rho=0.5, kappa=0.2, C=5.0,
                             max_scale=100)

    def test_cap_below_doubling_gives_single_scale(self):
        # cap = 12500 sits between N0 and 2 N0, so no step fits
        om = Frequency((0.5 + 1.6e-9,))
        lad = liouville_ladder(8192, 2, om, rho=0.5, kappa=0.2, C=5.0)
        assert lad.scales == (8192,)

    def test_scales_bounded_by_cap(self):
        om = Frequency((0.5 + 1e-11,))
        lad = liouville_ladder(8192, 2, om, rho=0.5, kappa=0.2, C=5.0)
        fn = 2e-11
        cap = 0.2**5 * 0.5**4 * 2 / fn
        assert len(lad.scales) >= 3
        assert all(n < cap for n in lad.scales)

    def test_params_carry_the_seven_keys(self):
        lad = small_resonant_ladder()
        assert set(lad.params) == {"kappa", "q0", "K0", "delta0", "rho", "C", "c"}
        assert lad.params["K0"] is None


class TestScaleLadderType:
    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            ScaleLadder(kind="liouville", scales=(8, 12), params={},
                        step_flags=())

    def test_rejects_non_power_of_two_ratio(self):
        with pytest.raises(ValueError):
            ScaleLadder(kind="liouville", scales=(8, 24), params={},
                        step_flags=())

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            ScaleLadder(kind="liouville", scales=(8, 8), params={},
                        step_flags=())

    def test_json_roundtrip_fields(self):
        lad = small_resonant_ladder()
        text = to_json_text(lad)
        assert text == to_json_text(lad)
        assert '"eq:LiouvCondition"' in text
        assert text.endswith("\n")


class TestMixedGate:
    def test_split_frequency_booleans(self):
        scan = min_dot_norm(Frequency((GOLDEN,)), 50).delta
        g = mixed_gate(2 * 10**7, 2, 50, HALF, Frequency((GOLDEN,)),
                       rho=0.5, kappa=0.2, delta=scan, C=5.0)
        c = 1.0 / 5.0
        assert g.flags["eq:Mixed:hyp1"] == (0.0 < 0.2**5 * 0.5**3 * 2 / (2 * 10**7))
        assert g.flags["eq:Mixed:hyp2"] == (50 > (0.5**(1 + c) * 0.2)**(-5.0) * 2)
        assert g.flags["eq:Mixed:hyp3"] == (2 * 10**7 > 0.2**(-5.0) * 50 / scan)
        assert g.params["scan_delta"] == scan

    def test_hyp2_failure_is_named(self):
        g = mixed_gate(2 * 10**7, 2, 3, HALF, Frequency((GOLDEN,)),
                       rho=0.5, kappa=0.2, delta=0.05, C=5.0)
        assert not g.flags["eq:Mixed:hyp2"]
        assert "eq:Mixed:hyp2" in g.failed_flags()

    def test_inconsistent_delta(self):
        with pytest.raises(InconsistentDelta):
            mixed_gate(10**6, 2, 50, HALF, Frequency((GOLDEN,)),
                       rho=0.5, kappa=0.2, delta=0.2, C=5.0)

    def test_empty_diophantine_block(self):
        g = mixed_gate(10**6, 2, 50, HALF, None, rho=0.5, kappa=0.2,
                       delta=1.0, C=5.0)
        assert g.params["scan_delta"] == math.inf
        assert g.flags["eq:Mixed:hyp3"]  # delta scan vacuous, bound trivial

    def test_resonant_block_gives_infinite_first_cap(self):
        # omega1 resonant at q0 and a huge growth exponent: both caps infinite
        g = mixed_gate(10**6, 2, 10**6, HALF, None, rho=0.5, kappa=0.2,
                       delta=1.0, C=5.0, c=1.0)
        assert g.max_scale == math.inf

    def test_finite_cap_is_min_of_both(self):
        om1 = Frequency((0.5 + 1e-9,))
        g = mixed_gate(1000, 2, 50, om1, Frequency((GOLDEN,)),
                       rho=0.5, kappa=0.2, delta=0.01, C=5.0)
        fn1 = g.params["freq_norm_1"]
        cap1 = 0.2**5 * 0.5**3 * 2 / fn1
        cap2 = 1000 * math.exp((50 / 2) ** (1.0 / 5.0))
        assert g.max_scale == min(cap1, cap2)


class TestInductionSchedule:
    def test_live_ladder_golden_block(self):
        sch = induction_schedule(None, Frequency((GOLDEN,)), q0=1, K0=2,
                                 delta0=0.2, eps0=0.0, N0=16, rho=0.95, c=0.1)
        assert sch.kind == "induction"
        assert sch.halt == "ScanTooLarge"
        assert len(sch.scales) == 2
        N1 = sch.scales[1]
        assert N1 % 16 == 0 and ((N1 // 16) & (N1 // 16 - 1)) == 0
        delta1 = min_dot_norm(Frequency((GOLDEN,)), 2**20).delta
        bound = Fraction(2**40) / Fraction(delta1) + 16
        assert N1 <= bound < 2 * N1
        advance = [s for s in sch.step_flags if s.get("kind") == "scale"]
        assert advance[0]["budget"] == pytest.approx(2.0 ** -0.1)

    def test_replay_is_byte_identical(self):
        def gen():
            return to_json_text(induction_schedule(
                None, Frequency((GOLDEN,)), 1, 2, 0.2, 0.0, 16, 0.95,
                c=0.1))
        assert gen() == gen()

    def test_budgets_dominated_geometrically(self):
        sch = induction_schedule(None, Frequency((GOLDEN,)), q0=1, K0=2,
                                 delta0=0.2, eps0=0.0, N0=16, rho=0.95, c=0.1)
        budgets = [s["budget"] for s in sch.step_flags if "budget" in s]
        assert budgets
        assert sum(budgets) <= 2.0 * 2.0 ** -0.1

    def test_stall_round_recorded(self):
        # N0 so large that K1^2/delta1 cannot double it
        sch = induction_schedule(None, Frequency((GOLDEN,)), q0=1, K0=2,
                                 delta0=0.2, eps0=0.0, N0=2**62, rho=0.95,
                                 c=0.1)
        kinds = [s.get("kind") for s in sch.step_flags]
        assert "stall" in kinds
        assert sch.scales == (2**62,)

    def test_cov_step_on_exact_resonance(self):
        sch = induction_schedule(None, Frequency((3 / 8,)), q0=1, K0=2,
                                 delta0=1 / 7, eps0=0.0, N0=15, rho=0.95,
                                 c=0.1)
        steps = [s for s in sch.step_flags if s.get("kind") == "automorphism"]
        assert len(steps) == 1
        s = steps[0]
        assert s["k"] == [8]
        assert s["gcd"] == 8
        assert s["n1"] == [1]
        assert s["B"] == [[1]]
        assert s["q"] == 8
        assert s["new_coordinate"] == pytest.approx(3 / 8)
        assert sch.halt == "d2-exhausted"

    def test_decimal_rational_double_is_not_resonant(self):
        # the double 3/7 is a dyadic rational: 7 times it misses 3 by
        # 3 * 2^-54, so the ladder takes a scale step instead of an
        # automorphism, then the next scan trips the guard
        rep = min_dot_norm(Frequency((3 / 7,)), 2**20)
        assert rep.delta == float.fromhex("0x1.8p-53")
        assert rep.argmin_k == (7,)
        sch = induction_schedule(None, Frequency((3 / 7,)), q0=1, K0=2,
                                 delta0=0.14, eps0=0.0, N0=16, rho=0.95,
                                 c=0.1)
        kinds = [s.get("kind") for s in sch.step_flags[1:]]
        assert kinds == ["scale", "halt"]
        assert sch.step_flags[1]["delta"] == rep.delta
        assert len(sch.scales) == 2
        assert sch.halt == "ScanTooLarge"

    def test_base_case_halts_immediately(self):
        sch = induction_schedule(HALF, None, q0=2, K0=2048, delta0=1.0,
                                 eps0=0.0, N0=1 << 21, rho=0.95, c=0.1)
        assert sch.scales == (1 << 21,)
        assert sch.halt == "d2-exhausted"

    def test_wide_block_hits_scan_guard_gracefully(self):
        # two frequency components: the first ladder round needs a scan over
        # (K0^20)^2 lattice points, which trips the guard
        sch = induction_schedule(None, Frequency((3 / 7, GOLDEN)), q0=1, K0=2,
                                 delta0=0.04, eps0=0.0, N0=2**10, rho=0.95,
                                 c=0.1)
        assert sch.halt == "ScanTooLarge"
        assert sch.scales == (2**10,)

    def test_q0_precondition_named(self):
        with pytest.raises(PreconditionFailed, match=r"q0 < K0"):
            induction_schedule(HALF, Frequency((GOLDEN,)), q0=2, K0=32,
                               delta0=0.01, eps0=0.0, N0=10**5, rho=0.9, c=0.1)

    def test_N0_window_named(self):
        with pytest.raises(PreconditionFailed, match="N0"):
            induction_schedule(None, Frequency((GOLDEN,)), q0=1, K0=2,
                               delta0=0.2, eps0=0.0, N0=4, rho=0.95, c=0.1)

    def test_rho_floor_named(self):
        with pytest.raises(PreconditionFailed, match="rho"):
            induction_schedule(None, Frequency((GOLDEN,)), q0=1, K0=2,
                               delta0=0.2, eps0=0.0, N0=16, rho=0.5, c=0.1)

    def test_eps0_consistency_named(self):
        with pytest.raises(PreconditionFailed, match="eps0"):
            induction_schedule(Frequency((GOLDEN,)), Frequency((GOLDEN,)),
                               q0=1, K0=2, delta0=0.2, eps0=0.0, N0=16,
                               rho=0.95, c=0.1)

    def test_delta0_consistency_named(self):
        with pytest.raises(PreconditionFailed, match="delta0"):
            induction_schedule(None, Frequency((GOLDEN,)), q0=1, K0=2,
                               delta0=0.9, eps0=0.0, N0=16, rho=0.95, c=0.1)

    def test_eps_window_halts_at_boundary(self):
        # positive eps0 puts a ceiling on the admissible scales; the trace
        # stops at the boundary instead of extending past it
        sch = induction_schedule(Frequency((1e-11,)), Frequency((GOLDEN,)),
                                 q0=1, K0=2, delta0=0.2, eps0=1e-10, N0=16,
                                 rho=0.95, c=0.1)
        assert sch.halt == "eq:RestrN1Cond"
        assert sch.scales == (16,)
        rec = sch.step_flags[-1]
        assert rec["cause"] == "eq:RestrN1Cond"
        assert rec["lhs"] > rec["rhs"]

    @given(K=st.integers(min_value=2, max_value=10**6),
           c=st.floats(min_value=0.051, max_value=1.0))
    def test_budget_series_bound_arithmetic(self, K, c):
        # sum over s of K^(-c * 20^s) is dominated by twice its first term
        total = 0.0
        for s in range(12):
            total += float(K) ** (-c * 20.0**s)
        assert total <= 2.0 * float(K) ** -c


class TestLadderVerify:
    def test_constant_cocycle_differences_exactly_zero(self):
        cc = Cocycle(constant_diag(), HALF)
        v = ladder_verify(cc, small_resonant_ladder(), C_prime=10.0)
        assert v.all_passed
        assert all(p[2] == 0.0 for p in v.pairs)
        assert v.estimates[16] == pytest.approx(math.log(2.0))

    def test_single_scale_rejected(self):
        lad = ScaleLadder(kind="liouville", scales=(16,),
                          params={"kappa": 0.5}, step_flags=())
        with pytest.raises(ValueError):
            ladder_verify(Cocycle(constant_diag(), HALF), lad)

    def test_amo_resonant_within_budget(self):
        ca = Cocycle(amo(3.0, 0.0), HALF)
        quad = QuadratureSpec(kind="uniform-grid", points_per_dim=512)
        v = ladder_verify(ca, small_resonant_ladder(), quad=quad, C_prime=10.0)
        assert v.all_passed
        budget = 10.0 * 0.5 ** (1.0 / 6.0)
        assert all(p[3] == budget for p in v.pairs)

    def test_discontinuity_resonant_is_scale_free(self):
        # k=(2,), omega=1/2 makes the per-step factor constant along every
        # orbit, so the exact average is N-independent; only angle-reduction
        # jitter in the complex exponentials survives
        cd = Cocycle(DiscontinuityExample((2,)), HALF)
        quad = QuadratureSpec(kind="uniform-grid", points_per_dim=256)
        v = ladder_verify(cd, small_resonant_ladder(), quad=quad, C_prime=10.0)
        assert v.all_passed
        assert all(p[2] <= 1e-12 for p in v.pairs)

    def test_base_to_top_pair_added(self):
        lad = ScaleLadder(kind="liouville", scales=(16, 32, 64),
                          params={"kappa": 0.5, "q0": 2, "K0": None,
                                  "delta0": None, "rho": 1.0, "C": 2.0,
                                  "c": None},
                          step_flags=())
        cc = Cocycle(constant_diag(), HALF)
        quad = QuadratureSpec(kind="uniform-grid", points_per_dim=64)
        v = ladder_verify(cc, lad, quad=quad)
        assert len(v.pairs) == len(lad.scales)  # consecutive plus base-to-top
        assert v.pairs[-1][0] == 16
        assert v.pairs[-1][1] == 64

    def test_induction_budgets_wired_from_steps(self):
        lad = ScaleLadder(kind="induction", scales=(16, 32),
                          params={"kappa": 0.25, "q0": 1, "K0": 4,
                                  "delta0": 0.5, "rho": 0.9, "C": 10.0,
                                  "c": 0.1},
                          step_flags=({"scale": 16},
                                      {"kind": "scale", "scale": 32,
                                       "budget": 0.125}))
        cc = Cocycle(constant_diag(), HALF)
        quad = QuadratureSpec(kind="uniform-grid", points_per_dim=64)
        v = ladder_verify(cc, lad, quad=quad, C_prime=2.0)
        assert v.pairs[0][3] == pytest.approx(2.0 * 0.125)

    def test_thread_count_does_not_change_bytes(self):
        cc = Cocycle(constant_diag(), HALF)
        lad = small_resonant_ladder()
        outs = []
        for w in (1, 3):
            set_max_workers(w)
            try:
                outs.append(to_json_text(ladder_verify(cc, lad)))
            finally:
                set_max_workers(1)
        assert outs[0] == outs[1]


class TestCovInvariance:
    def test_identity_exactly_zero(self):
        v = TrigPoly.cosine((1, 0)) + TrigPoly.cosine((0, 1))
        c = Cocycle(schrodinger(v, E=0.5, rho=0.5, d=2),
                    Frequency((GOLDEN, 2**0.5 - 1)))
        B = Automorphism.from_entries([[1, 0], [0, 1]])
        assert cov_invariance_check(c, B, N=10, M=32) == 0.0

    def test_schrodinger_matched_grid(self):
        v = TrigPoly.cosine((1, 0)) + TrigPoly.cosine((0, 1))
        c = Cocycle(schrodinger(v, E=0.5, rho=0.5, d=2),
                    Frequency((GOLDEN, 2**0.5 - 1)))
        B = Automorphism.from_entries([[2, 3], [1, 2]])
        assert cov_invariance_check(c, B, N=50, M=64) <= 1e-10

    def test_jacobi_matched_grid(self):
        om = Frequency((GOLDEN, 2**0.5 - 1))
        c = Cocycle(jacobi(TrigPoly.cosine((0, 1)), TrigPoly.cosine((1, 0)),
                           0.5, om, rho=0.5), om)
        B = Automorphism.from_entries([[2, 3], [1, 2]])
        assert cov_invariance_check(c, B, N=20, M=32) <= 1e-10

    def test_swap_matrix_rejected_as_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            Automorphism.from_entries([[0, 1], [1, 0]])

    def test_bad_N_rejected(self):
        c = Cocycle(constant_diag(), HALF)
        B = Automorphism.from_entries([[1]])
        with pytest.raises(ValueError):
            cov_invariance_check(c, B, N=0, M=16)
