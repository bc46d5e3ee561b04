import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import _util
from cocyclelab._util import set_max_workers
from cocyclelab.cocycle import (
    TWO_PI_I,
    ComposedMatrix,
    _phases,
    Cocycle,
    DiscontinuityExample,
    TrigPoly,
    TrigPolyMatrix,
    amo,
    det_scalar,
    iterate_log_norm,
    iterate_log_norm_many,
    jacobi,
    jacobi_periodic,
    renormalize,
    schrodinger,
    strip_norm,
)
from cocyclelab.errors import IdenticallySingular, OutsideStrip, Singular
from cocyclelab.torus import Automorphism, Frequency

GOLDEN = 0.6180339887


def brute_average(A, omega, N, x):
    # raw product, no renormalization; fine for short chains
    P = np.eye(2, dtype=complex)
    pt = np.asarray(x, dtype=float)
    w = omega.as_array()
    for _ in range(N):
        P = A.eval(pt) @ P
        pt = (pt + w) % 1.0
    return math.log(np.linalg.norm(P, 2)) / N


small_coeff = st.tuples(st.integers(-3, 3),
                        st.floats(-2, 2, allow_nan=False),
                        st.floats(-2, 2, allow_nan=False))


def poly_from(entries):
    coeffs = {}
    for k, re, im in entries:
        coeffs[(k,)] = coeffs.get((k,), 0j) + complex(re, im)
    return TrigPoly(1, coeffs)


class TestTrigPoly:
    def test_constant_eval(self):
        p = TrigPoly.constant(2, 3.5)
        assert p.eval((0.3, 0.9)) == 3.5
        assert p.degree == 0

    def test_cosine_matches_closed_form(self):
        p = TrigPoly.cosine((2,), amplitude=1.5)
        for x in (0.0, 0.13, 0.49):
            assert p.eval((x,)) == pytest.approx(1.5 * math.cos(4 * math.pi * x), abs=1e-12)
        assert p.is_real()

    def test_sine_matches_closed_form(self):
        p = TrigPoly.sine((1,))
        assert p.eval((0.2,)) == pytest.approx(math.sin(2 * math.pi * 0.2), abs=1e-12)

    def test_zero_coefficients_dropped(self):
        p = TrigPoly(1, {(0,): 0.0, (1,): 1.0})
        assert set(p.coeffs) == {(1,)}

    @given(st.lists(small_coeff, max_size=5), st.lists(small_coeff, max_size=5),
           st.floats(0, 1, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_product_is_pointwise(self, e1, e2, x):
        p, q = poly_from(e1), poly_from(e2)
        lhs = (p * q).eval((x,))
        rhs = p.eval((x,)) * q.eval((x,))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(st.lists(small_coeff, max_size=5), st.floats(0, 1, allow_nan=False),
           st.floats(-0.5, 0.5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_shift_is_pointwise(self, e, x, t):
        p = poly_from(e)
        assert p.shift((t,)).eval((x,)) == pytest.approx(p.eval((x + t,)), abs=1e-9)

    @given(st.lists(small_coeff, max_size=5), st.floats(0, 1, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_is_pointwise(self, e, x):
        p = poly_from(e)
        assert p.conjugate().eval((x,)) == pytest.approx(
            p.eval((x,)).conjugate(), abs=1e-9)


def same_bits(a, b) -> bool:
    """Equal values, NaNs in the same places and the same sign on every
    real and imaginary part, zeros included."""
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


@st.composite
def support_and_nodes(draw):
    """A coefficient support in Z^d, made symmetric or not, and nodes X."""
    d = draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1,
                         max_size=6, unique=True))
    symmetric = draw(st.booleans())
    if symmetric:
        keys = sorted(set(keys) | {tuple(-v for v in k) for k in keys})
    m = draw(st.sampled_from([1, 7, 512]))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -1.0, 2.0, (m, d))
    # exact zeros of k.x: the origin, a negative zero, equal coordinates
    special = [[0.0] * d, [-0.0] * d, [0.5] * d,
               draw(st.lists(st.floats(-4, 4), min_size=d, max_size=d))]
    X[:min(m, 4)] = special[:min(m, 4)]
    return d, keys, symmetric, X


coefficient = st.complex_numbers(min_magnitude=1e-3, max_magnitude=2.0,
                                 allow_nan=False, allow_infinity=False)


class TestHalfTablePhases:
    """On a symmetric index table eval_many runs exp over the indices k > 0
    only; every bit must match exp over the whole table."""

    @given(support_and_nodes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_trig_poly_matches_all_exp(self, case, data):
        d, keys, symmetric, X = case
        p = TrigPoly(d, {k: data.draw(coefficient) for k in keys})
        assert symmetric <= (p._half is not None)
        phases = np.exp(TWO_PI_I * (X @ p._ks.T))
        assert same_bits(_phases(X, p._ks, p._half), phases)
        assert same_bits(p.eval_many(X), phases @ p._cs)

    @given(support_and_nodes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_trig_poly_matrix_matches_all_exp(self, case, data):
        d, keys, symmetric, X = case
        A = TrigPolyMatrix(d, {k: [[data.draw(coefficient) for _ in range(2)]
                                   for _ in range(2)] for k in keys}, rho=0.5)
        assert symmetric <= (A._half is not None)
        ref = np.einsum("mn,nij->mij",
                        np.exp(TWO_PI_I * (X @ A._ks.T)), A._cs)
        assert same_bits(A.eval_many(X), ref)

    def test_sweep_of_small_batches_matches_all_exp(self):
        # single nodes in d >= 2: here BLAS gives some pairs of columns sums
        # that are not exact negatives, which _phases must detect
        rng = np.random.default_rng(11)
        for _ in range(400):
            d = int(rng.integers(2, 4))
            keys = {tuple(int(v) for v in rng.integers(-4, 5, d))
                    for _ in range(rng.integers(1, 8))}
            keys |= {tuple(-v for v in k) for k in keys}
            p = TrigPoly(d, {k: complex(*rng.uniform(-2, 2, 2))
                             for k in keys})
            for m in (1, 7):
                X = rng.uniform(-1.0, 2.0, (m, d))
                phases = np.exp(TWO_PI_I * (X @ p._ks.T))
                assert same_bits(_phases(X, p._ks, p._half), phases)
                assert same_bits(p.eval_many(X), phases @ p._cs)

    @pytest.mark.parametrize("m", [512, 65536])
    def test_named_cocycles_match_all_exp(self, m):
        X = (np.arange(m)[:, None] + 0.5) / m
        omega = Frequency((GOLDEN,))
        v = TrigPoly.cosine((1,), 4.0)
        a = TrigPoly.constant(1, 1.0) + TrigPoly.cosine((1,), 0.5)
        X2 = np.random.default_rng(m).random((m, 2))
        v2 = TrigPoly.cosine((1, 0), 2.0) + TrigPoly.cosine((0, 1))
        for A, pts in ((amo(3.0, 0.3), X), (jacobi(v, a, 0.3, omega), X),
                       (schrodinger(v2, 0.3, d=2), X2)):
            assert A._half is not None
            ref = np.einsum("mn,nij->mij",
                            np.exp(TWO_PI_I * (pts @ A._ks.T)), A._cs)
            assert same_bits(A.eval_many(pts), ref)


class TestMatrixAlgebra:
    def test_eval_constant(self):
        m = TrigPolyMatrix.constant(1, [[1, 2], [3, 4]])
        assert np.array_equal(m.eval((0.7,)), np.array([[1, 2], [3, 4]], dtype=complex))

    def test_eval_dimension_mismatch(self):
        m = TrigPolyMatrix.constant(2, np.eye(2))
        with pytest.raises(ValueError):
            m.eval((0.5,))

    def test_matmul_is_pointwise(self):
        a = schrodinger(TrigPoly.cosine((1,)), 0.3)
        b = schrodinger(TrigPoly.sine((2,)), -1.1)
        x = (0.37,)
        assert np.allclose((a @ b).eval(x), a.eval(x) @ b.eval(x), atol=1e-12)

    def test_matmul_order_matters(self):
        a = TrigPolyMatrix.constant(1, [[0, 1], [0, 0]])
        b = TrigPolyMatrix.constant(1, [[0, 0], [1, 0]])
        assert not np.allclose((a @ b).eval((0.0,)), (b @ a).eval((0.0,)))

    def test_degree_of_product_adds(self):
        a = schrodinger(TrigPoly.cosine((2,)), 0.0)
        assert (a @ a).degree == 4

    def test_eval_many_matches_eval(self):
        m = amo(2.0, 0.5)
        X = np.linspace(0, 1, 7, endpoint=False).reshape(-1, 1)
        batch = m.eval_many(X)
        for i, x in enumerate(X):
            assert np.array_equal(batch[i], m.eval(x))

    def test_compose_matches_pointwise(self):
        B = Automorphism.from_entries([[2, 3], [1, 2]])
        coeffs = {(1, 0): np.array([[1.0, 0], [0, 0.5]]),
                  (0, -1): np.array([[0, 2.0], [0, 0]])}
        A = TrigPolyMatrix(2, coeffs, rho=0.3)
        wrapped = ComposedMatrix(A, B)
        rng = np.random.default_rng(7)
        for x in rng.random((20, 2)):
            target = A.eval((B.as_array() @ x) % 1.0)
            assert np.allclose(wrapped.eval(x), target, atol=1e-10)


class TestStripNorm:
    def test_identical_matrices(self):
        a = amo(1.0, 0.0)
        r = strip_norm(a, a, rho=0.3, points_per_dim=64)
        assert r.value == 0.0
        assert r.samples == 3 * 64

    def test_constant_difference(self):
        a = TrigPolyMatrix.constant(1, np.eye(2))
        b = TrigPolyMatrix.constant(1, [[1, 0], [0, 3]])
        assert strip_norm(a, b, rho=0.4).value == pytest.approx(2.0, abs=1e-14)

    def test_monomial_grows_like_exp(self):
        # sup of |e^{2 pi i z}| over |Im z| <= rho is e^{2 pi rho}
        a = TrigPolyMatrix(1, {(1,): np.array([[1.0, 0], [0, 0]])}, rho=0.5)
        b = TrigPolyMatrix(1, {}, rho=0.5)
        r = strip_norm(a, b, rho=0.25, points_per_dim=32)
        assert r.value == pytest.approx(math.exp(2 * math.pi * 0.25), rel=1e-12)

    def test_budget_enforced(self):
        a = TrigPolyMatrix(1, {(1,): np.eye(2)}, rho=0.1)
        with pytest.raises(OutsideStrip):
            strip_norm(a, a, rho=0.2)


class TestConstructors:
    def test_schrodinger_shape(self):
        v = TrigPoly.cosine((1,), 2.0)
        m = schrodinger(v, 1.5)
        x = (0.21,)
        got = m.eval(x)
        assert got[0, 0] == pytest.approx(1.5 - 2 * math.cos(2 * math.pi * 0.21), abs=1e-12)
        assert got[0, 1] == -1.0 and got[1, 0] == 1.0 and got[1, 1] == 0.0

    def test_schrodinger_det_is_one(self):
        d = det_scalar(schrodinger(TrigPoly.cosine((1,), 2.0), 0.7))
        assert d.coeffs == {(0,): (1 + 0j)}

    def test_schrodinger_rejects_complex_potential(self):
        with pytest.raises(ValueError):
            schrodinger(TrigPoly(1, {(1,): 1.0}), 0.0)

    def test_jacobi_reduces_to_schrodinger_for_unit_a(self):
        om = Frequency((GOLDEN,))
        v = TrigPoly.cosine((1,), 1.3)
        j = jacobi(v, 1.0, 0.4, om)
        s = schrodinger(v, 0.4)
        assert set(j.coeffs) == set(s.coeffs)
        for k in j.coeffs:
            assert np.array_equal(j.coeffs[k], s.coeffs[k])

    def test_jacobi_offdiagonal_is_conjugate_shift(self):
        om = Frequency((GOLDEN,))
        a = TrigPoly(1, {(1,): 0.5 + 0.25j, (0,): 1.0})
        j = jacobi(0.0, a, 0.0, om)
        for x in (0.0, 0.3, 0.77):
            want = -(a.eval((x - GOLDEN,)).conjugate())
            assert j.entry(0, 1).eval((x,)) == pytest.approx(want, abs=1e-12)
            assert j.entry(1, 0).eval((x,)) == pytest.approx(a.eval((x,)), abs=1e-12)

    def test_jacobi_det_modulus(self):
        # det = conj(a(x-omega)) a(x); for a = e^{2 pi i x} it is the constant
        # e^{2 pi i omega}
        om = Frequency((0.3,))
        a = TrigPoly(1, {(1,): 1.0})
        d = det_scalar(jacobi(0.0, a, 0.0, om))
        assert set(d.coeffs) == {(0,)}
        assert abs(d.coeffs[(0,)]) == pytest.approx(1.0, abs=1e-14)
        assert d.coeffs[(0,)] == pytest.approx(np.exp(2j * math.pi * 0.3), abs=1e-14)

    def test_jacobi_rejects_zero_a(self):
        with pytest.raises(IdenticallySingular):
            jacobi(0.0, TrigPoly(1, {}), 0.0, Frequency((GOLDEN,)))

    def test_jacobi_periodic_q1_is_jacobi(self):
        om = Frequency((GOLDEN,))
        v = TrigPoly.cosine((1,))
        a = TrigPoly(1, {(0,): 1.0, (1,): 0.2})
        jp = jacobi_periodic(v, a, (0.0,), 1.1, om)
        j = jacobi(v, a, 1.1, om)
        assert set(jp.coeffs) == set(j.coeffs)
        for k in jp.coeffs:
            assert np.allclose(jp.coeffs[k], j.coeffs[k], atol=1e-15)

    def test_jacobi_periodic_q2_alternating_background(self):
        om = Frequency((GOLDEN,))
        jp = jacobi_periodic(0.0, 1.0, (0.0, 1.0), 0.0, om)
        assert set(jp.coeffs) == {(0,)}
        assert np.array_equal(jp.coeffs[(0,)],
                              np.array([[-1, 1], [0, -1]], dtype=complex))

    def test_jacobi_periodic_constant_background_squares_schrodinger(self):
        om = Frequency((GOLDEN,))
        jp = jacobi_periodic(0.0, 1.0, (0.4, 0.4), 1.7, om)
        s = schrodinger(0.0, 1.7 - 0.4, d=1)
        expect = s.eval((0.0,)) @ s.eval((0.0,))
        assert np.allclose(jp.eval((0.123,)), expect, atol=1e-12)


class TestRenormalize:
    def test_unit_determinant_after(self):
        om = Frequency((GOLDEN,))
        a = TrigPoly(1, {(0,): 2.0, (1,): 0.5})
        r = renormalize(jacobi(0.0, a, 0.3, om))
        X = np.linspace(0, 1, 11, endpoint=False).reshape(-1, 1)
        vals = r.eval_many(X)
        dets = vals[:, 0, 0] * vals[:, 1, 1] - vals[:, 0, 1] * vals[:, 1, 0]
        assert np.allclose(np.abs(dets), 1.0, atol=1e-12)

    def test_identically_singular_rejected(self):
        m = TrigPolyMatrix(1, {(0,): np.array([[1.0, 0], [0, 0]])}, rho=0.5)
        with pytest.raises(IdenticallySingular):
            renormalize(m)

    def test_pointwise_singular_raises(self):
        # det = e^{2 pi i x} - 1 vanishes exactly at x = 0 in floats
        f = TrigPoly(1, {(1,): 1.0, (0,): -1.0})
        m = TrigPolyMatrix.from_entries(f, TrigPoly(1, {}), TrigPoly(1, {}),
                                        TrigPoly.constant(1, 1.0), rho=0.5)
        r = renormalize(m)
        with pytest.raises(Singular):
            r.eval((0.0,))
        vals = r.eval_many(np.array([[0.0], [0.25]]))
        assert np.all(np.isnan(vals[0]))
        assert np.all(np.isfinite(vals[1]))


class TestDiscontinuityExample:
    def test_diagonal_structure(self):
        ex = DiscontinuityExample((1,))
        got = ex.eval((0.2,))
        lam = np.exp(2j * math.pi * 0.2) * math.exp(-2 * math.pi)
        assert got[0, 0] == pytest.approx(np.exp(lam), abs=1e-15)
        assert got[1, 1] == pytest.approx(np.exp(-lam), abs=1e-15)
        assert got[0, 1] == 0 and got[1, 0] == 0

    def test_det_is_one(self):
        ex = DiscontinuityExample((2, 1))
        X = np.random.default_rng(0).random((16, 2))
        vals = ex.eval_many(X)
        dets = vals[:, 0, 0] * vals[:, 1, 1]
        assert np.allclose(dets, 1.0, atol=1e-12)

    def test_resonant_log_norm_is_abs_cos(self):
        # at omega = 0 the product telescopes: (1/N) ln||A_N|| =
        # |Re lam(x)| = e^{-2 pi} |cos(2 pi x)| for every N
        ex = DiscontinuityExample((1,))
        c = Cocycle(ex, Frequency((0.0,)))
        for x in (0.1, 0.35):
            want = math.exp(-2 * math.pi) * abs(math.cos(2 * math.pi * x))
            for N in (1, 7):
                got = iterate_log_norm(c, N, (x,)).log_norm_avg
                assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            DiscontinuityExample((0, 0))


class TestIteration:
    def test_n1_is_plain_log_norm(self):
        m = amo(2.0, 1.0)
        c = Cocycle(m, Frequency((GOLDEN,)))
        x = (0.31,)
        got = iterate_log_norm(c, 1, x).log_norm_avg
        assert got == pytest.approx(math.log(np.linalg.norm(m.eval(x), 2)), abs=1e-12)

    def test_matches_raw_product(self):
        m = amo(1.5, 0.3)
        c = Cocycle(m, Frequency((GOLDEN,)))
        for N in (2, 5, 9):
            got = iterate_log_norm(c, N, (0.11,)).log_norm_avg
            assert got == pytest.approx(brute_average(m, c.omega, N, (0.11,)), abs=1e-10)

    def test_constant_diagonal_exact_all_scales(self):
        m = TrigPolyMatrix.constant(1, [[3.0, 0], [0, 1 / 3]])
        c = Cocycle(m, Frequency((GOLDEN,)))
        base = iterate_log_norm(c, 1, (0.0,)).log_norm_avg
        for N in (2, 4, 8, 16, 64):
            assert iterate_log_norm(c, N, (0.0,)).log_norm_avg == base

    def test_cocycle_law_subadditive(self):
        m = amo(2.0, 0.0)
        om = Frequency((GOLDEN,))
        c = Cocycle(m, om)
        x = np.array([0.27])
        M, N = 6, 10
        lhs = (M + N) * iterate_log_norm(c, M + N, x).log_norm_avg
        x_shift = (x + N * om.as_array()) % 1.0
        rhs = (M * iterate_log_norm(c, M, x_shift).log_norm_avg
               + N * iterate_log_norm(c, N, x).log_norm_avg)
        assert lhs <= rhs + 1e-9

    def test_underflow_flagged_not_raised(self):
        m = TrigPolyMatrix.constant(1, [[0, 1], [0, 0]])  # nilpotent
        c = Cocycle(m, Frequency((GOLDEN,)))
        r = iterate_log_norm(c, 2, (0.5,))
        assert r.underflowed
        assert r.log_norm_avg == -math.inf

    def test_partial_logs_accumulate(self):
        # reading one orbit at every step gives the partial sums n * avg[n]
        m = amo(1.2, 0.5)
        c = Cocycle(m, Frequency((GOLDEN,)))
        avg, under = iterate_log_norm_many(c, 5, np.array([[0.4]]), at=range(1, 6))
        assert not under.any()
        for n in range(1, 6):
            assert n * avg[n - 1, 0] == pytest.approx(
                n * brute_average(m, c.omega, n, (0.4,)), abs=1e-10)

    def test_batch_matches_single(self):
        m = amo(2.0, 0.7)
        c = Cocycle(m, Frequency((GOLDEN,)))
        X = np.linspace(0, 1, 9, endpoint=False).reshape(-1, 1)
        avg, under = iterate_log_norm_many(c, 20, X)
        assert not under.any()
        for i, x in enumerate(X):
            assert avg[i] == iterate_log_norm(c, 20, x).log_norm_avg

    def test_thread_count_does_not_change_bits(self, monkeypatch):
        # split the 257 nodes even though each chunk is below the thread floor
        monkeypatch.setattr(_util, "MIN_ROWS_PER_WORKER", 1)
        m = amo(2.0, 0.7)
        c = Cocycle(m, Frequency((GOLDEN,)))
        X = np.random.default_rng(3).random((257, 1))
        one, _ = iterate_log_norm_many(c, 16, X)
        try:
            set_max_workers(4)
            four, _ = iterate_log_norm_many(c, 16, X)
        finally:
            set_max_workers(1)
        assert np.array_equal(one, four)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Cocycle(amo(1.0, 0.0), Frequency((0.1, 0.2)))

    def test_invalid_n(self):
        c = Cocycle(amo(1.0, 0.0), Frequency((GOLDEN,)))
        with pytest.raises(ValueError):
            iterate_log_norm(c, 0, (0.0,))
