import dataclasses
import math

import numpy as np
import pytest

from cocyclelab._util import CSV_BLOCK, dyadic_grid, fmt17, to_json_text
from cocyclelab.cocycle import (
    Cocycle,
    DiscontinuityExample,
    TrigPoly,
    TrigPolyMatrix,
    amo,
    iterate_log_norm_many,
    jacobi,
    renormalize,
)
from cocyclelab.deviation import (
    FourierReport,
    MeasureEstimate,
    Profile,
    _shift_diffs,
    cdt_empirical,
    cdt_empirical_many,
    coeffs_to_csv,
    fourier_coeffs,
    l2_uniform_check,
    ldt_empirical,
    lojasiewicz_fit,
    profile,
    shift_drift_empirical,
)
from cocyclelab.errors import AllSamplesSingular, IdenticallyZero, ScanTooLarge
from cocyclelab.lyapunov import sample_log_norms
from cocyclelab.torus import Frequency

GOLDEN = 0.6180339887


def amo_cocycle(lam=3.0, E=0.0):
    return Cocycle(amo(lam, E), Frequency((GOLDEN,)))


def jacobi_cos():
    om = Frequency((GOLDEN,))
    return Cocycle(jacobi(0.0, TrigPoly.cosine((1,)), 0.5, om), om)


class TestProfile:
    def test_constant_cocycle_flat_profile(self):
        A = TrigPolyMatrix.constant(1, [[2.0, 0], [0, 0.5]])
        p = profile(Cocycle(A, Frequency((GOLDEN,))), 13, 64)
        assert np.all(p.values == math.log(2.0))
        assert p.excised_mass == 0.0
        assert p.mean == math.log(2.0)

    def test_resonant_discontinuity_closed_form(self):
        c = Cocycle(DiscontinuityExample((1,)), Frequency((0.0,)))
        p = profile(c, 7, 256)
        x = np.arange(256) / 256
        want = math.exp(-2 * math.pi) * np.abs(np.cos(2 * np.pi * x))
        assert np.allclose(p.values, want, atol=1e-12)

    def test_jacobi_sentinel_fraction_small(self):
        p = profile(jacobi_cos(), 50, 4096)
        assert p.excised_mass < 0.01

    def test_grid_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            profile(amo_cocycle(), 5, 100)

    def test_grid_guard(self):
        with pytest.raises(ScanTooLarge):
            profile(amo_cocycle(), 5, 2**23)

    def test_clipping_replaces_sentinels(self):
        # enough mild nodes that a lone deep dip falls below -T; with only
        # a handful of nodes the dip dominates the rms and T tracks it
        vals = np.full(64, 0.5)
        vals[3] = -math.inf
        vals[7] = -50.0
        p = Profile.from_values(vals)
        clipped, T, count = p.clipped()
        rms = math.sqrt((62 * 0.25 + 2500.0) / 63)
        assert T == pytest.approx(2 * (rms + 10))
        assert count == 2  # the sentinel and the -50 dip
        assert clipped[3] == -T and clipped[7] == -T
        assert clipped[0] == 0.5

    def test_retained_dip_inside_window_survives(self):
        vals = np.array([0.5, -math.inf, 0.25, -100.0])
        p = Profile.from_values(vals)
        clipped, T, count = p.clipped()
        # -100 is retained, inflates the rms, and stays above -T
        assert T > 100.0
        assert count == 1
        assert clipped[1] == -T
        assert clipped[3] == -100.0

    @pytest.mark.parametrize("fill", [-math.inf, math.nan])
    def test_all_excised_profile_raises(self, fill):
        # its mean, rms, Fourier coefficients and ldt fraction have no value
        with pytest.raises(AllSamplesSingular, match="no finite value"):
            Profile.from_values(np.full(8, fill))


class TestFourier:
    def test_constant_profile_has_no_tones(self):
        p = Profile.from_values(np.full(64, 1.7))
        r = fourier_coeffs(p, 8)
        assert r.k0_coeff == pytest.approx(1.7, abs=1e-12)
        others = np.abs(r.coeffs[r.ks.reshape(-1, 1)[:, 0].reshape(64) != 0])
        assert np.max(others) < 1e-12

    def test_pure_tone(self):
        x = np.arange(128) / 128
        p = Profile.from_values(np.cos(2 * np.pi * x))
        r = fourier_coeffs(p, 10)
        k = r.ks.reshape(-1)
        c = r.coeffs.reshape(-1)
        assert c[k == 1][0] == pytest.approx(0.5, abs=1e-12)
        assert c[k == -1][0] == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(c[np.abs(k) > 1])) < 1e-12
        assert r.max_k_weighted == pytest.approx(0.5, abs=1e-12)

    def test_k0_matches_mean_and_parseval(self):
        p = profile(amo_cocycle(), 64, 1024)
        r = fourier_coeffs(p, 100)
        assert r.k0_coeff == pytest.approx(p.mean, abs=1e-12)
        assert r.parseval_lhs == pytest.approx(r.parseval_rhs, abs=1e-10)

    def test_tail_energy_nests_and_stays_bounded(self):
        p = profile(amo_cocycle(), 64, 1024)
        t1 = fourier_coeffs(p, 16).tail_energy_times_K0
        t2 = fourier_coeffs(p, 128).tail_energy_times_K0
        # raw tail energies nest (the |k| > 128 set is inside |k| > 16)
        assert t2 / 128 <= t1 / 16 + 1e-15
        # and the weighted form stays of modest size for this cocycle
        assert 0.0 <= t1 <= 1.0
        assert 0.0 <= t2 <= 1.0

    def test_two_dim_profile_reports_no_kweight(self):
        vals = np.outer(np.cos(2 * np.pi * np.arange(16) / 16), np.ones(16))
        r = fourier_coeffs(Profile.from_values(vals), 4)
        assert r.max_k_weighted is None
        assert r.d == 2

    def test_k0_range_validated(self):
        p = Profile.from_values(np.zeros(32))
        with pytest.raises(ValueError):
            fourier_coeffs(p, 16)


class TestLDT:
    def test_constant_profile_zero_fraction(self):
        p = Profile.from_values(np.full(128, 2.0))
        assert ldt_empirical(p, 0.1).measured_fraction == 0.0

    def test_zero_threshold_near_full_mass(self):
        p = profile(amo_cocycle(), 200, 1024)
        assert ldt_empirical(p, 0.0).measured_fraction >= 0.99

    def test_monotone_in_kappa(self):
        p = profile(amo_cocycle(), 1000, 1024)
        sweep = [ldt_empirical(p, k).measured_fraction
                 for k in (0.005, 0.002, 0.001, 0.0005, 0.0002)]
        assert all(a <= b for a, b in zip(sweep, sweep[1:]))
        assert sweep[0] <= 0.05  # concentrated at this scale

    def test_json_emission(self):
        p = Profile.from_values(np.full(8, 1.0))
        text = to_json_text([ldt_empirical(p, 0.5)])
        assert '"measured_fraction": 0' in text
        assert '"threshold": 0.5' in text


class TestCDT:
    def test_zero_shift_exactly_zero(self):
        m = cdt_empirical(amo_cocycle(), 50, (0.0,), 0.01, 256)
        assert m.measured_fraction == 0.0

    def test_constant_cocycle_zero(self):
        A = TrigPolyMatrix.constant(1, [[2.0, 0], [0, 0.5]])
        c = Cocycle(A, Frequency((GOLDEN,)))
        m = cdt_empirical(c, 50, (0.37,), 0.01, 256)
        assert m.measured_fraction == 0.0

    def test_fraction_roughly_halves_with_a(self):
        c = amo_cocycle()
        big = cdt_empirical(c, 500, (5e-4,), 0.005, 2048)
        small = cdt_empirical(c, 500, (2.5e-4,), 0.005, 2048)
        assert big.measured_fraction > 0.0
        ratio = small.measured_fraction / big.measured_fraction
        assert 0.2 <= ratio <= 0.8

    def test_predicted_bound_form(self):
        m = cdt_empirical(amo_cocycle(), 20, (1e-3,), 0.1, 128, C_const=2.0)
        assert m.predicted_bound == pytest.approx(2.0 * 0.1**-3 * 1e-3)
        assert m.parameters["vacuous"] == 1.0


class TestShiftDrift:
    def test_constant_cocycle_no_violations(self):
        A = TrigPolyMatrix.constant(1, [[2.0, 0], [0, 0.5]])
        c = Cocycle(A, Frequency((GOLDEN,)))
        m = shift_drift_empirical(c, 100, 0.5, 256)
        assert m.measured_fraction == 0.0

    def test_amo_within_tolerance(self):
        m = shift_drift_empirical(amo_cocycle(), 400, 0.5, 1024, C_const=10.0)
        assert m.measured_fraction <= 0.01
        assert m.threshold == pytest.approx(10.0 / 20.0)

    def test_jacobi_small_violation_fraction(self):
        m = shift_drift_empirical(jacobi_cos(), 400, 0.5, 1024, C_const=10.0)
        assert m.measured_fraction <= 0.05

    def test_exponent_validated(self):
        with pytest.raises(ValueError):
            shift_drift_empirical(amo_cocycle(), 10, 1.5, 64)


# det A(x) = cos(2 pi x) + 0.3, so renormalize(A, floor) kills the nodes
# whose orbit meets |det| < floor.
def _excising(omega, floor=0.5):
    a = TrigPoly.cosine((1,), 1.0) + TrigPoly.constant(1, 0.3)
    e11 = TrigPoly.constant(1, 0.4) - TrigPoly.cosine((1,), 3.0)
    A = TrigPolyMatrix(e11, TrigPoly.constant(1, -1.0), a,
                       TrigPoly(1, {}), rho=0.5)
    return Cocycle(renormalize(A, floor=floor), omega)


class TestShiftDiffs:
    @pytest.mark.parametrize("M, N, a", [(64, 3, 0.1), (512, 4, 0.37),
                                         (1024, 2, 0.01)])
    def test_one_batch_equals_two_separate_calls(self, M, N, a):
        C = _excising(Frequency((0.05,)), floor=0.2)
        X = dyadic_grid(1, M)
        a = np.array([a])
        (base,) = sample_log_norms(C, [N], X)
        (shifted,) = sample_log_norms(C, [N], (X + a) % 1.0)
        u0, u1 = base == -np.inf, shifted == -np.inf
        keep = ~(u0 | u1)
        # some pairs survive, and some are dropped by one orbit only
        assert keep.any() and (u0 != u1).any()
        want = np.abs(base[keep] - shifted[keep])
        assert _shift_diffs(C, N, M, [a], False)[0].tobytes() == \
            want.tobytes()

    def test_every_node_underflowed(self):
        tiny = TrigPolyMatrix.constant(1, [[1e-305, 0], [0, 1e-305]])
        C = Cocycle(tiny, Frequency((GOLDEN,)))
        with pytest.raises(AllSamplesSingular,
                           match="^all 16 nodes underflowed at N=2$"):
            _shift_diffs(C, 2, 8, [np.array([0.1])], False)

    def test_many_shifts_report_the_first_failing_shift(self):
        tiny = TrigPolyMatrix.constant(1, [[1e-305, 0], [0, 1e-305]])
        C = Cocycle(tiny, Frequency((GOLDEN,)))
        with pytest.raises(AllSamplesSingular,
                           match="^all 16 nodes underflowed at N=2$"):
            cdt_empirical_many(C, 2, [[0.1], [0.2], [0.3]], 0.1, 8,
                               renormalize_first=False)


class TestLojasiewicz:
    T_GRID = (0.2, 0.1, 0.05, 0.02, 0.01)

    def test_sine_power_one(self):
        fit = lojasiewicz_fit(TrigPoly.sine((1,)), self.T_GRID, 2**14)
        assert 0.9 <= fit.b <= 1.1
        assert fit.S == pytest.approx(2 / math.pi, rel=0.15)

    def test_sine_squared_power_half(self):
        g = TrigPoly.sine((1,)) * TrigPoly.sine((1,))
        fit = lojasiewicz_fit(g, self.T_GRID, 2**14)
        assert 0.4 <= fit.b <= 0.6

    def test_nonvanishing_function_all_zero_fractions(self):
        fit = lojasiewicz_fit(TrigPoly.constant(1, 1.0), (0.5, 0.25), 256)
        assert all(m.measured_fraction == 0.0 for m in fit.estimates)
        assert math.isnan(fit.b)

    def test_fractions_monotone_in_t(self):
        fit = lojasiewicz_fit(TrigPoly.sine((1,)), self.T_GRID, 4096)
        fr = [m.measured_fraction for m in fit.estimates]
        assert all(a >= b for a, b in zip(fr, fr[1:]))

    def test_identically_zero_rejected(self):
        with pytest.raises(IdenticallyZero):
            lojasiewicz_fit(TrigPoly(1, {}), (0.1,), 64)

    def test_increasing_grid_rejected(self):
        with pytest.raises(ValueError):
            lojasiewicz_fit(TrigPoly.sine((1,)), (0.01, 0.1), 64)


class TestL2Uniform:
    def test_constant_cocycle_flat_column(self):
        A = TrigPolyMatrix.constant(1, [[2.0, 0], [0, 0.5]])
        c = Cocycle(A, Frequency((GOLDEN,)))
        r = l2_uniform_check(c, (10, 100), 64)
        assert r.ratio == 1.0
        assert not r.growth_flagged

    def test_jacobi_bounded_ratio(self):
        r = l2_uniform_check(jacobi_cos(), (10, 100, 1000), 1024)
        assert r.ratio <= 2.0
        assert not r.growth_flagged

    @pytest.mark.parametrize("renormalize_first", [True, False])
    def test_rows_match_one_profile_per_N(self, renormalize_first):
        # the per-N loop l2_uniform_check ran before it read every N from one orbit
        C, N_list, M = jacobi_cos(), (50, 10, 10, 200, 1), 64
        X = dyadic_grid(1, M)
        A = renormalize(C.A) if renormalize_first else C.A
        want = []
        for N in N_list:
            avg, under = iterate_log_norm_many(Cocycle(A, C.omega), N, X)
            p = Profile(d=1, M=M, N=N, values=np.where(under, -math.inf, avg))
            want.append((N, p.rms, p.excised_mass))
        r = l2_uniform_check(C, N_list, M, renormalize_first=renormalize_first)
        assert [(n, a.hex(), b.hex()) for n, a, b in r.rows] == \
            [(n, a.hex(), b.hex()) for n, a, b in want]
        col = [row[1] for row in want]
        assert r.ratio == max(col) / min(col)

    def test_det_rms_stable_in_grid(self):
        a = l2_uniform_check(jacobi_cos(), (10,), 512).det_rms
        b = l2_uniform_check(jacobi_cos(), (10,), 1024).det_rms
        assert a > 0
        assert abs(a - b) / a < 0.02


def coeffs_csv_row_loop(report) -> str:
    """The per-row loop coeffs_to_csv used before csv_text, kept as the
    byte reference: abs is taken of each numpy complex scalar."""
    header = ",".join([f"k{i + 1}" for i in range(report.d)]
                      + ["re", "im", "abs"])
    lines = [header]
    ks = report.ks.reshape(-1, report.d)
    cs = report.coeffs.reshape(-1)
    for i in np.lexsort(ks.T[::-1]):
        c = cs[i]
        lines.append(",".join([str(int(v)) for v in ks[i]]
                              + [fmt17(c.real), fmt17(c.imag), fmt17(abs(c))]))
    return "\n".join(lines) + "\n"


class TestCSV:
    @pytest.mark.parametrize("shape", [(256,), (16, 16)])
    def test_coeffs_csv_bytes_match_row_loop(self, shape, same_text):
        # random values make np.abs(coeffs) differ from the scalar abs in the
        # last bit on some entries, so a vectorised abs column fails here
        values = np.random.default_rng(0).standard_normal(shape)
        report = fourier_coeffs(Profile.from_values(values), 4)
        same_text(coeffs_to_csv(report), coeffs_csv_row_loop(report))

    def test_coeffs_csv_bytes_match_row_loop_over_blocks(self, same_text):
        # more rows than coeffs_to_csv converts at once, in shuffled k order
        values = np.random.default_rng(1).standard_normal(3 * 4096 + 5)
        report = fourier_coeffs(Profile.from_values(values), 4)
        same_text(coeffs_to_csv(report), coeffs_csv_row_loop(report))

    @pytest.mark.parametrize("shape", [(96, 96), (CSV_BLOCK,), (20, 20, 20)],
                             ids=["d2-9216-rows", "one-full-block", "d3"])
    def test_coeffs_csv_bytes_match_row_loop_in_blocks(self, shape, same_text):
        values = np.random.default_rng(3).standard_normal(shape)
        report = fourier_coeffs(Profile.from_values(values), 4)
        assert report.coeffs.size == math.prod(shape)
        same_text(coeffs_to_csv(report), coeffs_csv_row_loop(report))

    SPECIAL = [complex(math.inf, 0.0), complex(-math.inf, math.nan),
               complex(math.nan, 1.0), complex(0.5, -math.inf),
               complex(-0.0, -0.0), complex(1.7e308, 1.7e308),
               complex(5e-324, -5e-324)]

    def test_coeffs_csv_non_finite_parts_match_row_loop(self, same_text):
        values = np.random.default_rng(2).standard_normal((16, 16))
        report = fourier_coeffs(Profile.from_values(values), 4)
        coeffs = report.coeffs.copy()
        coeffs.reshape(-1)[:len(self.SPECIAL)] = self.SPECIAL
        report = dataclasses.replace(report, coeffs=coeffs)
        text = coeffs_to_csv(report)
        same_text(text, coeffs_csv_row_loop(report))
        assert ",inf,nan,inf\n" not in text and ",-inf,nan,inf\n" in text

    def test_coeffs_csv_overflow_in_a_later_block_only(self, same_text):
        # the special values sit in the second block of k order, so the
        # first block is formatted without the cell-by-cell abs fallback
        values = np.random.default_rng(4).standard_normal(3 * CSV_BLOCK + 5)
        report = fourier_coeffs(Profile.from_values(values), 4)
        ks = report.ks.reshape(-1, report.d)
        order = np.lexsort(ks.T[::-1])
        at = order[CSV_BLOCK + 10:CSV_BLOCK + 10 + len(self.SPECIAL)]
        coeffs = report.coeffs.copy()
        coeffs.reshape(-1)[at] = self.SPECIAL
        report = dataclasses.replace(report, coeffs=coeffs)
        text = coeffs_to_csv(report)
        same_text(text, coeffs_csv_row_loop(report))
        lines = text.splitlines()
        assert lines[1 + CSV_BLOCK + 15].endswith(
            ",1.6999999999999999e+308,1.6999999999999999e+308,inf")
        assert all(not line.endswith(",inf")
                   for line in lines[1:CSV_BLOCK + 1])

    def test_coeffs_csv_sorted_by_k(self):
        p = Profile.from_values(np.cos(2 * np.pi * np.arange(16) / 16))
        text = coeffs_to_csv(fourier_coeffs(p, 4))
        lines = text.strip().split("\n")
        assert lines[0] == "k1,re,im,abs"
        ks = [int(l.split(",")[0]) for l in lines[1:]]
        assert ks == sorted(ks)
