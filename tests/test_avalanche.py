import math

import numpy as np
import pytest

from cocyclelab.avalanche import (
    ap_check,
    ap_consequence_check,
    ap_ensemble,
    ap_variant_check,
    ensemble_to_csv,
    random_hyperbolic_chain,
)
from cocyclelab._util import to_json_text
from cocyclelab.cocycle import Cocycle, TrigPolyMatrix, amo
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
        text = to_json_text(r.to_json_dict())
        assert '"kind": "interior"' in text
        assert '"satisfied": true' in text


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

    def test_divisibility_enforced(self):
        c = Cocycle(amo(3.0, 0.0), Frequency((GOLDEN,)))
        with pytest.raises(NotDivisible):
            ap_consequence_check(c, (0.1,), N0=7, N1=100, delta=0.5)

    def test_flag_keys_are_stable(self):
        A = TrigPolyMatrix.constant(1, [[3.0, 0], [0, 1 / 3.0]])
        c = Cocycle(A, Frequency((GOLDEN,)))
        r = ap_consequence_check(c, (0.0,), N0=5, N1=25, delta=0.1)
        assert set(r.hypothesis_flags) == {"eq:169", "eq:170", "eq:171"}
