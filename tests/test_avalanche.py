import math

import numpy as np
import pytest

from cocyclelab import avalanche
from cocyclelab.avalanche import (
    AP_BLOCK,
    _chain_terms,
    _report,
    _validated,
    ap_check,
    ap_consequence_check,
    ap_ensemble,
    ap_variant_check,
    ensemble_to_csv,
    random_hyperbolic_chain,
)
from cocyclelab._util import op_norm_2x2, to_json_text
from cocyclelab.cocycle import (
    Cocycle,
    TrigPolyMatrix,
    amo,
    iterate_log_norm,
    iterate_log_norm_many,
)
from cocyclelab.errors import ChainTooShort, NotDivisible, NotUnimodular
from cocyclelab.torus import Frequency

GOLDEN = 0.6180339887


def diag_chain(mu, n):
    A = np.array([[mu, 0.0], [0.0, 1.0 / mu]], dtype=complex)
    return np.broadcast_to(A, (n, 2, 2)).copy()


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


class TestApCheck:
    def test_identical_diagonal_chain_telescopes_exactly(self):
        r = ap_check(diag_chain(100.0, 10))
        assert r.residual == 0.0
        assert r.max_gap == 0.0
        assert r.hypothesis_min_norm_ok and r.hypothesis_gap_ok
        assert r.mu == pytest.approx(100.0, rel=1e-14)

    def test_exact_zero_across_sizes(self):
        for mu, n in ((1024.0, 64), (128.0, 37), (1e3, 50)):
            assert ap_check(diag_chain(mu, n)).residual == 0.0

    def test_rotated_chain_within_bound(self):
        rng = np.random.default_rng(1)
        mats = np.array([rotation(0.3) @ diag_chain(1000.0, 1)[0]
                         for _ in range(50)])
        del rng
        r = ap_check(mats, C_assumed=10.0)
        assert r.hypotheses_ok
        assert r.residual <= r.bound

    def test_hypothesis_flag_when_mu_too_small(self):
        # mu = n/2 violates mu > n but the residual is still reported
        n = 10
        r = ap_check(diag_chain(n / 2.0, n))
        assert not r.hypothesis_min_norm_ok
        assert r.residual == 0.0

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(2)
        mats = random_hyperbolic_chain(rng, 20, 1e3)
        theta = 0.77
        U = rotation(theta)
        conj = np.array([U @ m @ U.conj().T for m in mats])
        a = ap_check(mats)
        b = ap_check(conj)
        assert b.residual == pytest.approx(a.residual, abs=1e-10)
        assert b.max_gap == pytest.approx(a.max_gap, abs=1e-10)

    def test_unimodular_scalar_invariance(self):
        rng = np.random.default_rng(3)
        mats = random_hyperbolic_chain(rng, 12, 1e3)
        phase = np.exp(0.4j)
        scaled = mats * phase
        # det is now e^{0.8j}, not 1: must reject
        with pytest.raises(NotUnimodular):
            ap_check(scaled)

    def test_short_chain_rejected(self):
        with pytest.raises(ChainTooShort):
            ap_check(diag_chain(10.0, 2))

    def test_non_unimodular_rejected(self):
        mats = diag_chain(10.0, 5)
        mats[2] *= 1.5
        with pytest.raises(NotUnimodular):
            ap_check(mats)

    @pytest.mark.parametrize("check", [ap_check, ap_variant_check])
    def test_nan_matrix_rejected(self, check):
        # a NaN determinant compares False against the tolerance either way
        mats = diag_chain(2.0, 5)
        mats[2, 0, 0] = np.nan
        with pytest.raises(NotUnimodular, match="^matrix 2 has det"):
            check(mats)


class TestApVariantCheck:
    def test_identical_chain_boundary_identity(self):
        # all-j sum leaves exactly the two boundary log-norms
        mu, n = 1e4, 20
        r = ap_variant_check(diag_chain(mu, n))
        assert r.residual == pytest.approx(2.0 * math.log(mu), rel=1e-12)
        assert r.residual <= r.bound

    def test_power_of_two_chain_is_bitwise_boundary(self):
        mats = diag_chain(1024.0, 16)
        v = math.log(1024.0)
        assert ap_variant_check(mats).residual == 2.0 * v

    def test_window_flag(self):
        # norms exactly equal: window (mu, mu^C) holds at the top, fails only
        # if some norm reaches mu^C
        mats = diag_chain(1e3, 8)
        mats[3] = np.array([[1e9, 0], [0, 1e-9]])
        r = ap_variant_check(mats, C_exponent=1.5)
        assert not r.hypothesis_min_norm_ok

    def test_gap_flag_fires_on_inverse_pair(self):
        mu = 1e3
        A = np.array([[mu, 0], [0, 1 / mu]], dtype=complex)
        Ainv = np.array([[1 / mu, 0], [0, mu]], dtype=complex)
        r = ap_variant_check(np.array([A, Ainv, A]))
        assert not r.hypothesis_gap_ok

    def test_bound_formula(self):
        r = ap_variant_check(diag_chain(1e3, 10), C_exponent=2.0)
        assert r.bound == pytest.approx(10 / 1e1 + 8.0 * math.log(1e3), rel=1e-12)


class TestEnsemble:
    def test_interior_ensemble_within_ceiling(self):
        res = ap_ensemble(200, seed=11, mu=1e3, n_max=100)
        assert res.all_within
        for r in res.reports:
            assert r.hypotheses_ok
            assert r.residual <= 10.0 * r.n / r.mu

    def test_variant_ensemble_within_bound(self):
        res = ap_ensemble(200, seed=12, mu=1e3, n_max=100, variant=True)
        assert res.all_within

    def test_deterministic_per_seed(self):
        a = ap_ensemble(20, seed=5)
        b = ap_ensemble(20, seed=5)
        assert [r.residual for r in a.reports] == [r.residual for r in b.reports]

    def test_csv_layout(self):
        res = ap_ensemble(3, seed=1)
        text = ensemble_to_csv(res.reports)
        lines = text.strip().split("\n")
        assert lines[0] == "n,mu,max_gap,residual,bound"
        assert len(lines) == 4
        assert len(lines[1].split(",")) == 5

    def test_report_json(self):
        r = ap_check(diag_chain(100.0, 5))
        text = to_json_text(r)
        assert '"kind": "interior"' in text
        assert r.residual <= r.bound


class TestConsequence:
    def test_constant_hyperbolic_lhs_zero(self):
        A = TrigPolyMatrix.constant(1, [[3.0, 0], [0, 1 / 3.0]])
        c = Cocycle(A, Frequency((GOLDEN,)))
        r = ap_consequence_check(c, (0.2,), N0=10, N1=100, delta=0.5)
        assert r.lhs == 0.0
        assert r.hypotheses_ok
        assert r.satisfied is True

    def test_amo_two_scale_control(self):
        c = Cocycle(amo(3.0, 0.0), Frequency((GOLDEN,)))
        r = ap_consequence_check(c, (0.1,), N0=40, N1=400, delta=0.5, C_const=10.0)
        # the exponent exceeds delta and the conclusion holds with room; the
        # finite-scale drift flags are honest at N0=40 (x-dependence of L_40
        # is a few percent, above delta/100) and stay reported, not asserted
        assert r.hypothesis_flags["eq:169"]
        assert r.lhs <= r.rhs

    def test_hypothesis_violation_reported_not_asserted(self):
        c = Cocycle(amo(3.0, 0.0), Frequency((GOLDEN,)))
        # delta far above L_{N0}(x) violates the first hypothesis
        r = ap_consequence_check(c, (0.1,), N0=40, N1=400, delta=50.0)
        assert not r.hypothesis_flags["eq:169"]
        assert r.satisfied is None

    @pytest.mark.parametrize("N0, N1", [(40, 400), (1, 3), (16, 16)])
    def test_report_matches_separate_orbits(self, N0, N1):
        # the two kernel calls the report made before N0 and 2 N0 shared an orbit
        c = Cocycle(amo(3.0, 0.2), Frequency((GOLDEN,)))
        x = np.array([0.1])
        shifts = (x[None, :] + np.arange(N1 // N0 + 1)[:, None]
                  * (N0 * c.omega.as_array())) % 1.0
        l_n0, _ = iterate_log_norm_many(c, N0, shifts)
        l_2n0, _ = iterate_log_norm_many(c, 2 * N0, shifts)
        r = ap_consequence_check(c, x, N0=N0, N1=N1, delta=0.5)
        assert r.L_N0.hex() == float(l_n0[0]).hex()
        assert r.L_2N0.hex() == float(l_2n0[0]).hex()
        L_N1 = iterate_log_norm(c, N1, x).log_norm_avg
        drift = max(float(np.max(np.abs(l_n0[1:] - l_n0[0]))),
                    float(np.max(np.abs(l_2n0[1:] - l_2n0[0]))))
        assert r.hypothesis_flags["eq:171"] == (drift < 0.5 / 100.0)
        assert r.lhs.hex() == abs(L_N1 + float(l_n0[0]) - 2.0 * float(l_2n0[0])).hex()

    def test_divisibility_enforced(self):
        c = Cocycle(amo(3.0, 0.0), Frequency((GOLDEN,)))
        with pytest.raises(NotDivisible):
            ap_consequence_check(c, (0.1,), N0=7, N1=100, delta=0.5)

    @pytest.mark.parametrize("N0, N1, message", [
        (0, 10, "need 1 <= N0 <= N1, got N0=0, N1=10"),
        (-2, 4, "need 1 <= N0 <= N1, got N0=-2, N1=4"),
        (5, 3, "need 1 <= N0 <= N1, got N0=5, N1=3"),
    ])
    def test_scales_checked_before_divisibility(self, N0, N1, message):
        c = Cocycle(amo(3.0, 0.0), Frequency((GOLDEN,)))
        with pytest.raises(ValueError, match=message) as info:
            ap_consequence_check(c, (0.1,), N0=N0, N1=N1, delta=0.5)
        assert not isinstance(info.value, NotDivisible)

    def test_flag_keys_are_stable(self):
        A = TrigPolyMatrix.constant(1, [[3.0, 0], [0, 1 / 3.0]])
        c = Cocycle(A, Frequency((GOLDEN,)))
        r = ap_consequence_check(c, (0.0,), N0=5, N1=25, delta=0.1)
        assert set(r.hypothesis_flags) == {"eq:169", "eq:170", "eq:171"}


# ---------------------------------------------------------------------------
# Batched chain loop against the one-chain loop it replaced
# ---------------------------------------------------------------------------

def _ref_norms(mats):
    return op_norm_2x2(mats.transpose(1, 2, 0))


def reference_chain_terms(matrices):
    """One chain at a time, one 2x2 product per step: the unbatched loop."""
    mats = np.asarray(matrices, dtype=complex)
    n = mats.shape[0]
    v = np.log(_ref_norms(mats))
    w = np.log(_ref_norms(mats[1:] @ mats[:-1]))
    U = np.eye(2, dtype=complex)
    logs = np.empty(n)
    for j in range(n):
        U = mats[j] @ U
        s = float(_ref_norms(U[None])[0])
        logs[j] = math.log(s)
        U = U / s
    return n, v, w, logs


def reference_ensemble(chains, seed, mu=1e3, n_max=100, variant=False):
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(chains):
        n = int(rng.integers(3, n_max + 1))
        terms = reference_chain_terms(random_hyperbolic_chain(rng, n, mu))
        reports.append(_report(terms, variant,
                               101.0 / 99.0 if variant else 10.0))
    ratios = [r.residual / r.bound for r in reports if r.bound > 0]
    worst = max(ratios) if ratios else 0.0
    return reports, worst, bool(worst <= 1.0)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _chains(count, lengths, seed):
    rng = np.random.default_rng(seed)
    lo, hi = lengths
    return [random_hyperbolic_chain(rng, int(rng.integers(lo, hi + 1)), 1e3)
            for _ in range(count)]


def _kernel_product(M, U):
    """M @ U for 2x2 arrays, entry by entry in the kernel's order
    M_i0 U_0j + M_i1 U_1j, on one-element arrays."""
    out = np.empty((2, 2, 1), dtype=complex)
    for i in range(2):
        for j in range(2):
            out[i, j] = M[i, 0:1] * U[0, j:j + 1] + M[i, 1:2] * U[1, j:j + 1]
    return out[:, :, 0]


def kernel_order_chain_terms(matrices):
    """reference_chain_terms with every product in the kernel's order."""
    mats = np.asarray(matrices, dtype=complex)
    n = mats.shape[0]
    v = np.log(_ref_norms(mats))
    w = np.log(_ref_norms(np.array([_kernel_product(mats[j + 1], mats[j])
                                    for j in range(n - 1)])))
    U = np.eye(2, dtype=complex)
    logs = np.empty(n)
    for j in range(n):
        U = _kernel_product(mats[j], U)
        s = float(_ref_norms(U[None])[0])
        logs[j] = math.log(s)
        U = U / s
    return n, v, w, logs


def complex_sl2_chains(count, seed):
    """Seeded complex SL(2,C) chains of 3 to 100 matrices: Gaussian matrices
    over a square root of their determinant."""
    rng = np.random.default_rng(seed)
    chains = []
    for _ in range(count):
        n = int(rng.integers(3, 101))
        g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
        chains.append(g / np.sqrt(det)[:, None, None])
    return chains


def _assert_bitwise_equal(chains, reference):
    got = _chain_terms(chains)
    assert len(got) == len(chains)
    for mats, (n, v, w, logs) in zip(chains, got):
        rn, rv, rw, rlogs = reference(mats)
        assert n == rn
        assert _bits(v) == _bits(rv)
        assert _bits(w) == _bits(rw)
        assert _bits(logs) == _bits(rlogs)


class TestBatchedChainTerms:
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
    def test_complex_chains_bitwise_equal_to_kernel_order(self, count):
        _assert_bitwise_equal(complex_sl2_chains(count, seed=100 + count),
                              kernel_order_chain_terms)

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("lengths", [(3, 100), (3, 3), (100, 100)],
                             ids=["mixed", "all-3", "all-100"])
    def test_bitwise_equal_to_one_chain_loop(self, count, lengths):
        _assert_bitwise_equal(_chains(count, lengths, seed=count),
                              reference_chain_terms)

    @pytest.mark.parametrize("variant", [False, True],
                             ids=["interior", "variant"])
    @pytest.mark.parametrize("seed", [0, 1, 11])
    def test_ensemble_matches_reference_path(self, seed, variant):
        chains = 2 * AP_BLOCK + 2
        res = ap_ensemble(chains, seed=seed, variant=variant)
        reports, worst, within = reference_ensemble(chains, seed,
                                                    variant=variant)
        assert [to_json_text(r) for r in res.reports] == \
            [to_json_text(r) for r in reports]
        assert res.worst_ratio == worst
        assert res.all_within is within

    def test_matrix_cap_closes_blocks_early(self, monkeypatch):
        blocks = []

        def recording(chains):
            blocks.append([len(m) for m in chains])
            return _chain_terms(chains)

        monkeypatch.setattr(avalanche, "AP_BLOCK_MATRICES", 300)
        monkeypatch.setattr(avalanche, "_chain_terms", recording)
        res = ap_ensemble(40, seed=2, variant=True)
        assert sum(len(b) for b in blocks) == 40 and len(blocks) > 2
        for b in blocks[:-1]:
            assert sum(b) >= 300 > sum(b[:-1])
        reports, _, _ = reference_ensemble(40, 2, variant=True)
        assert [to_json_text(r) for r in res.reports] == \
            [to_json_text(r) for r in reports]

    def test_errors_still_come_from_ap_check(self):
        with pytest.raises(ChainTooShort, match="got 2"):
            ap_check(diag_chain(10.0, 2))
        mats = diag_chain(10.0, 6)
        mats[4] *= 1.5
        with pytest.raises(NotUnimodular, match="^matrix 4 has det"):
            ap_check(mats)
        with pytest.raises(ValueError, match="stack of 2x2"):
            ap_check(np.ones((4, 3, 3)))
        with pytest.raises(ValueError, match="stack of 2x2"):
            ap_variant_check(np.ones((2, 2)))


# ---------------------------------------------------------------------------
# Real chains step in float64 with the bits of the complex run
# ---------------------------------------------------------------------------

def _as_complex(chains):
    return [m.astype(complex) for m in chains]


def _assert_terms_bitwise_equal(got, want):
    assert len(got) == len(want)
    for (n, v, w, logs), (rn, rv, rw, rlogs) in zip(got, want):
        assert n == rn
        assert v.tobytes() == rv.tobytes()
        assert w.tobytes() == rw.tobytes()
        assert logs.tobytes() == rlogs.tobytes()


class TestRealArithmetic:
    @pytest.mark.parametrize("count", [1, 64, 65, 130])
    @pytest.mark.parametrize("lengths", [(3, 100), (3, 3), (100, 100)],
                             ids=["mixed", "all-3", "all-100"])
    def test_real_arithmetic_chain_terms_equal_complex_cast(self, count,
                                                            lengths):
        chains = _chains(count, lengths, seed=200 + count)
        assert all(m.dtype == np.float64 for m in chains)
        _assert_terms_bitwise_equal(_chain_terms(chains),
                                    _chain_terms(_as_complex(chains)))

    @pytest.mark.parametrize("mu", [1e3, 1e40, 1e78])
    def test_real_arithmetic_reports_equal_complex_cast(self, mu):
        # at mu = 1e78 every norm leaves the closed form's range
        rng = np.random.default_rng(7)
        for n in (3, 4, 17, 100):
            mats = random_hyperbolic_chain(rng, n, mu)
            cast = mats.astype(complex)
            assert to_json_text(ap_check(mats)) == \
                to_json_text(ap_check(cast))
            assert to_json_text(ap_variant_check(mats)) == \
                to_json_text(ap_variant_check(cast))

    def test_real_arithmetic_mixed_block_equals_all_complex(self):
        real = _chains(9, (3, 100), seed=5)
        cplx = complex_sl2_chains(7, seed=6)
        mixed = [m for pair in zip(real, cplx) for m in pair] + real[7:]
        _assert_terms_bitwise_equal(
            _chain_terms(mixed),
            _chain_terms([m.astype(complex) for m in mixed]))

    def test_real_arithmetic_dtypes(self):
        rng = np.random.default_rng(0)
        assert random_hyperbolic_chain(rng, 5, 1e3).dtype == np.float64
        eye = np.eye(2)[None].repeat(3, axis=0)
        assert _validated(eye.astype(complex)).dtype == np.complex128
        assert _validated(eye.astype(np.complex64)).dtype == np.complex128
        assert _validated(eye).dtype == np.float64
        assert _validated(eye.astype(np.float32)).dtype == np.float64
        assert _validated(eye.astype(int)).dtype == np.float64
        assert _validated(eye.tolist()).dtype == np.float64

    def test_real_arithmetic_keeps_the_determinant_message(self):
        mats = diag_chain(10.0, 5)
        mats[2] *= 2.0
        for m in (mats.real.copy(), mats):
            with pytest.raises(NotUnimodular,
                               match=r"^matrix 2 has det \(4\+0j\), not 1"):
                ap_check(m)
