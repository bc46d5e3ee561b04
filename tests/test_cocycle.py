import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import _util
from cocyclelab._util import det_2x2, grid, set_max_workers
from cocyclelab.cocycle import (
    TWO_PI_I,
    ComposedMatrix,
    RenormalizedMatrix,
    _dot,
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


def from_blocks(d, blocks, rho=0.5):
    """The TrigPolyMatrix whose coefficient at k is the 2x2 block blocks[k]."""
    arrs = {k: np.asarray(m, dtype=complex) for k, m in blocks.items()}
    return TrigPolyMatrix(*(TrigPoly(d, {k: m[i, j] for k, m in arrs.items()})
                            for i in (0, 1) for j in (0, 1)), rho=rho)


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


def _all_exp(X, ks):
    """e^{2 pi i k.x} with exp over the whole index table: (n, m)."""
    return np.exp(TWO_PI_I * _dot(X, ks))


def _closed(ks):
    """Whether the index table holds -k for every k in it."""
    rows = {tuple(k) for k in ks.tolist()}
    return rows == {tuple(-v for v in k) for k in rows}


class TestHalfTablePhases:
    """Every index table is closed under k -> -k, with zero coefficients
    where an index is missing, and eval_many runs exp over the indices k > 0
    only; every bit must match exp over the whole table."""

    @given(support_and_nodes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_trig_poly_matches_all_exp(self, case, data):
        d, keys, symmetric, X = case
        p = TrigPoly(d, {k: data.draw(coefficient) for k in keys})
        assert _closed(p._ks)
        phases = _all_exp(X, p._ks)
        assert same_bits(_phases(X, p._ks, p._half), phases)
        assert same_bits(p.eval_many(X), np.einsum("nm,n->m", phases, p._cs))

    @given(support_and_nodes(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_trig_poly_matrix_matches_all_exp(self, case, data):
        d, keys, symmetric, X = case
        A = from_blocks(d, {k: [[data.draw(coefficient) for _ in range(2)]
                                for _ in range(2)] for k in keys})
        assert _closed(A._ks)
        ref = np.einsum("nm,nij->mij", _all_exp(X, A._ks), A._cs)
        assert same_bits(A.eval_many(X), ref)

    def test_sweep_of_small_batches_matches_all_exp(self):
        # single nodes and small batches in d >= 2: the half table is right
        # only if _dot gives k and -k exactly opposite sums in any batch
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
                phases = _all_exp(X, p._ks)
                assert same_bits(_phases(X, p._ks, p._half), phases)
                assert same_bits(p.eval_many(X),
                                 np.einsum("nm,n->m", phases, p._cs))

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
            ref = np.einsum("nm,nij->mij", _all_exp(pts, A._ks), A._cs)
            got = A.eval_many(pts)
            assert got.dtype == np.float64
            assert same_bits(got, ref.real)


def harmonics(d, terms, c0=0.0):
    """c0 + sum of ck e^{2 pi i k.x} + conj(ck) e^{-2 pi i k.x} over the
    pairs (k, ck) in terms, distinct up to sign and none of them 0: real by
    construction."""
    coeffs = {(0,) * d: c0}
    for k, ck in terms:
        coeffs[tuple(k)] = ck
        coeffs[tuple(-v for v in k)] = ck.conjugate()
    return TrigPoly(d, coeffs)


def harmonic(d, k, ck, c0=0.0):
    """harmonics with the one harmonic k (none when k is 0)."""
    return harmonics(d, [(k, ck)] if any(k) else [], c0)


@st.composite
def real_entry(draw, d):
    """A real-by-construction entry: up to four harmonics, their indices
    distinct up to sign, with complex c_k and a real c_0 (some entries
    constants or zero)."""
    ks = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d).filter(any),
                       max_size=4,
                       unique_by=lambda k: max(k, tuple(-v for v in k))))
    return harmonics(d, [(k, draw(coefficient)) for k in ks],
                     draw(st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-2, 2)))


def _one_harmonic(A):
    """Whether every entry of A has at most one harmonic k (with -k)."""
    return all(sum(map(any, e.coeffs)) <= 2 for e in A.entries)


@st.composite
def real_matrix_and_nodes(draw):
    """A matrix whose entries are each a sum of conjugate-symmetric
    harmonics of their own (some of them constants or zero), and nodes X
    with exact zeros of k.x among them."""
    d = draw(st.integers(1, 3))
    entries = [draw(real_entry(d)) for _ in range(4)]
    m = draw(st.sampled_from([1, 7, 512]))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -1.0, 2.0, (m, d))
    X[:min(m, 3)] = [[0.0] * d, [-0.0] * d, [0.25] * d][:min(m, 3)]
    return TrigPolyMatrix(*entries, rho=0.5), X


def _einsum_ref(A, X):
    """A(X) by the complex einsum over the full phase table."""
    return np.einsum("nm,nij->mij", _all_exp(X, A._ks), A._cs)


def _jacobi_one_harmonic():
    a = harmonic(1, (2,), 0.3 - 0.4j, 0.5)   # vanishes on the torus
    return jacobi(TrigPoly.cosine((1,), 4.0), a, 0.3, Frequency((GOLDEN,)))


# Matrices whose entries have c_{-k} = conj(c_k) exactly for every k, so
# their evaluation is float64, and matrices where that fails.
REAL_BY_CONSTRUCTION = {
    "amo": lambda: amo(3.0, 0.3),
    "amo-huge": lambda: amo(1e150, 0.3),
    "amo-tiny": lambda: amo(1e-200, 0.0),
    "schrodinger-1d-phase": lambda: schrodinger(
        harmonic(1, (3,), 0.7 + 1.1j), 0.2),
    "schrodinger-2d": lambda: schrodinger(TrigPoly.cosine((1, -2), 2.0), 0.3, d=2),
    "schrodinger-3d": lambda: schrodinger(
        harmonic(3, (0, 1, 2), -0.4 + 0.9j, 0.25), 0.3, d=3),
    "jacobi": _jacobi_one_harmonic,
    "constant": lambda: TrigPolyMatrix.constant(1, [[2.0, 0.0], [1.0, 0.5]]),
    "schrodinger-2-harmonics": lambda: schrodinger(
        TrigPoly.cosine((1, 0), 2.0) + TrigPoly.cosine((0, 1)), 0.3, d=2),
    "jacobi-periodic-q2": lambda: jacobi_periodic(
        TrigPoly.cosine((1,), 4.0), harmonic(1, (1,), 0.25, 1.0), (0.0, 1.0),
        0.3, Frequency((GOLDEN,))),
}
NOT_REAL = {
    "non-conjugate": lambda: TrigPolyMatrix(
        TrigPoly(1, {(1,): 1.0, (-1,): 1.0 + 1e-16j}), TrigPoly.constant(1, -1.0),
        TrigPoly.constant(1, 1.0), TrigPoly(1, {}), rho=0.5),
    "one-sided": lambda: TrigPolyMatrix(
        TrigPoly(1, {(1,): 1.0}), TrigPoly.constant(1, -1.0),
        TrigPoly.constant(1, 1.0), TrigPoly(1, {}), rho=0.5),
    "complex-constant": lambda: TrigPolyMatrix.constant(1, [[1j, 0], [0, -1j]]),
}


class TestRealEvaluation:
    """A matrix whose entries are real by construction evaluates in
    float64, with the bits of the complex einsum's real part; that einsum's
    imaginary part is exactly 0 when every entry has at most one
    harmonic."""

    @given(real_matrix_and_nodes())
    @settings(max_examples=150, deadline=None)
    def test_real_arithmetic_evaluation_is_einsum_real_part(self, case):
        A, X = case
        got, ref = A.eval_many(X), _einsum_ref(A, X)
        assert got.dtype == np.float64
        assert got.transpose(1, 2, 0).flags.c_contiguous
        assert not _one_harmonic(A) or np.all(ref.imag == 0)
        assert same_bits(got, ref.real)
        for i in range(0, X.shape[0], 97):
            assert same_bits(A.eval(X[i]), got[i])

    @pytest.mark.parametrize("name", sorted(REAL_BY_CONSTRUCTION))
    def test_real_arithmetic_named_matrices(self, name):
        A = REAL_BY_CONSTRUCTION[name]()
        X = np.random.default_rng(3).random((512, A.d))
        got, ref = A.eval_many(X), _einsum_ref(A, X)
        assert got.dtype == np.float64
        assert not _one_harmonic(A) or np.all(ref.imag == 0)
        assert same_bits(got, ref.real)

    @pytest.mark.parametrize("name", sorted(NOT_REAL))
    def test_other_matrices_stay_complex(self, name):
        A = NOT_REAL[name]()
        X = np.random.default_rng(4).random((512, A.d))
        got = A.eval_many(X)
        assert got.dtype == np.complex128
        assert same_bits(got, _einsum_ref(A, X))

    @given(st.integers(1, 2).flatmap(
        lambda d: st.lists(real_entry(d), min_size=2, max_size=4)))
    @settings(max_examples=100, deadline=None)
    def test_real_arithmetic_products_stay_conjugate_symmetric(self, polys):
        """A product of real-by-construction polynomials has
        c_{-k} = conj(c_k) exactly, c_0 real, in every grouping."""
        for p in (polys[0] * polys[1], polys[-1] * polys[0] * polys[1],
                  (polys[0] + polys[-1]) * (polys[1] * polys[-1])):
            for k, c in p.coeffs.items():
                neg = p.coeffs.get(tuple(-v for v in k), 0j)
                assert neg == c.conjugate() and (any(k) or c.imag == 0)

    # v = 4 cos, v_per = (0, 1, -0.5, 0.3, 0.2, 0.1)[:q]: blocks from q = 3
    # on ran complex while the product added the terms of k and -k in dict
    # order, one ulp apart
    @pytest.mark.parametrize("a", ["1+0.5cos", "0.7+0.4sin"])
    @pytest.mark.parametrize("q", range(1, 7))
    def test_real_arithmetic_jacobi_periodic_blocks(self, q, a):
        a = TrigPoly.constant(1, 1.0) + TrigPoly.cosine((1,), 0.5) \
            if a == "1+0.5cos" else \
            TrigPoly.constant(1, 0.7) + TrigPoly.sine((1,), 0.4)
        A = jacobi_periodic(TrigPoly.cosine((1,), 4.0), a,
                            (0.0, 1.0, -0.5, 0.3, 0.2, 0.1)[:q], 0.3,
                            Frequency((GOLDEN,)))
        X = np.random.default_rng(q).random((512, 1))
        got = A.eval_many(X)
        assert got.dtype == np.float64
        assert same_bits(got, _einsum_ref(A, X).real)

    def test_discontinuity_stays_complex(self):
        X = np.random.default_rng(5).random((64, 1))
        assert DiscontinuityExample((1,)).eval_many(X).dtype == np.complex128

    def test_wrappers_pass_the_dtype_through(self):
        X = np.random.default_rng(6).random((64, 2))
        real = schrodinger(TrigPoly.cosine((1, 1), 2.0), 0.3, d=2)
        several = REAL_BY_CONSTRUCTION["schrodinger-2-harmonics"]()
        B = Automorphism.from_entries([[2, 3], [1, 2]])
        for A, dtype in ((real, np.float64), (several, np.float64),
                         (several.scaled(1j), np.complex128)):
            assert RenormalizedMatrix(A).eval_many(X).dtype == dtype
            assert ComposedMatrix(A, B).eval_many(X).dtype == dtype


def _c_order_stack(A, X):
    """A(X) as the C-order (m, 2, 2) stack of the einsum over the full
    phase table, the layout an outside evaluator returns."""
    return np.einsum("nm,nij->mij", _all_exp(X, A._ks), A._cs)


class _COrderEvaluator:
    """An outside evaluator: the values of base, copied to C order."""

    def __init__(self, base):
        self.base, self.d = base, base.d

    def eval_many(self, X):
        return np.ascontiguousarray(self.base.eval_many(X))


class TestEntryMajorLayout:
    """The built-in evaluators return A as an (m, 2, 2) view of entry-major
    (2, 2, m) memory, with the bits of the C-order reference."""

    @staticmethod
    def _polys():
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            keys = {tuple(int(v) for v in rng.integers(-3, 4, d))
                    for _ in range(4)}
            for symmetric in (False, True):
                if symmetric:
                    keys |= {tuple(-v for v in k) for k in keys}
                coeffs = {k: rng.uniform(-2, 2, (2, 2))
                          + 1j * rng.uniform(-2, 2, (2, 2)) for k in keys}
                yield from_blocks(d, coeffs), rng

    @staticmethod
    def _check(vals, ref):
        assert vals.shape == ref.shape
        assert vals.transpose(1, 2, 0).flags.c_contiguous
        assert same_bits(vals, ref)

    @pytest.mark.parametrize("m", [1, 7, 512])
    def test_trig_poly_matrix(self, m):
        for A, rng in self._polys():
            X = rng.uniform(-1.0, 2.0, (m, A.d))
            self._check(A.eval_many(X), _c_order_stack(A, X))

    @pytest.mark.parametrize("m", [1, 512])
    def test_renormalized(self, m):
        for A, rng in self._polys():
            X = rng.uniform(-1.0, 2.0, (m, A.d))
            ref = renormalize(_COrderEvaluator(A)).eval_many(X)
            self._check(renormalize(A).eval_many(X), ref)

    def test_composed(self):
        v = TrigPoly.cosine((1, 0), 2.0) + TrigPoly.cosine((0, 1))
        A = schrodinger(v, 0.3, d=2)
        B = Automorphism.from_entries([[2, 3], [1, 2]])
        X = np.random.default_rng(6).random((512, 2))
        Y = _dot(X, B.as_array().astype(float)).T
        ref = _c_order_stack(A, Y - np.floor(Y))
        vals = ComposedMatrix(A, B).eval_many(X)
        assert vals.dtype == np.float64
        self._check(vals, ref.real)

    @pytest.mark.parametrize("k", [(1,), (2, -1), (1, 0, 3)])
    def test_discontinuity(self, k):
        ex = DiscontinuityExample(k)
        X = np.random.default_rng(7).random((512, len(k)))
        lam = np.exp(TWO_PI_I * _dot(X, np.array([k], dtype=float))[0]) \
            * ex.scale
        ref = np.zeros((512, 2, 2), dtype=complex)
        ref[:, 0, 0] = np.exp(lam)
        ref[:, 1, 1] = np.exp(-lam)
        self._check(ex.eval_many(X), ref)

    def test_c_order_evaluator_iterates_to_the_same_bits(self):
        A = renormalize(jacobi(TrigPoly.cosine((1,), 4.0),
                               TrigPoly.constant(1, 1.0)
                               + TrigPoly.cosine((1,), 0.5), 0.3,
                               Frequency((GOLDEN,))))
        X = (np.arange(512)[:, None] + 0.5) / 512
        omega = Frequency((GOLDEN,))
        avg, under = iterate_log_norm_many(Cocycle(A, omega), 9, X)
        ref, ref_under = iterate_log_norm_many(
            Cocycle(_COrderEvaluator(A), omega), 9, X)
        assert avg.tobytes() == ref.tobytes()
        assert np.array_equal(under, ref_under)


class TestMatrixAlgebra:
    def test_eval_constant(self):
        m = TrigPolyMatrix.constant(1, [[1, 2], [3, 4]])
        assert np.array_equal(m.eval((0.7,)), np.array([[1, 2], [3, 4]], dtype=complex))

    def test_constructor_checks(self):
        one, two = TrigPoly.constant(1, 1.0), TrigPoly.constant(2, 1.0)
        for rho in (0.0, -0.5):
            with pytest.raises(ValueError, match="rho must be positive"):
                TrigPolyMatrix(one, one, one, one, rho=rho)
        with pytest.raises(ValueError, match="different dimensions"):
            TrigPolyMatrix(one, one, two, one, rho=0.5)
        for bad in ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], np.eye(3), [1.0, 2.0]):
            with pytest.raises(ValueError, match="must be 2x2"):
                TrigPolyMatrix.constant(1, bad)

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
        A = from_blocks(2, coeffs, rho=0.3)
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
        a = from_blocks(1, {(1,): [[1.0, 0], [0, 0]]})
        b = from_blocks(1, {})
        r = strip_norm(a, b, rho=0.25, points_per_dim=32)
        assert r.value == pytest.approx(math.exp(2 * math.pi * 0.25), rel=1e-12)

    def test_budget_enforced(self):
        a = from_blocks(1, {(1,): np.eye(2)}, rho=0.1)
        with pytest.raises(OutsideStrip):
            strip_norm(a, a, rho=0.2)

    @staticmethod
    def _ref_strip_norm(A, B, rho, points_per_dim):
        """strip_norm by exp over the whole table at the complex points
        X + i y of each face."""
        D, d = A - B, A.d
        X = grid(d, points_per_dim)
        faces = [np.zeros(d)] + [rho * (2.0 * np.array(s) - 1.0)
                                 for s in np.ndindex(*(2,) * d)]
        return max(float(np.max(np.abs(np.einsum(
            "nm,nij->mij", np.exp(TWO_PI_I * _dot(X + 1j * y, D._ks)),
            D._cs)))) for y in faces)

    @pytest.mark.parametrize("d, per_axis", [(1, 64), (2, 16), (3, 6)])
    def test_matches_complex_points(self, d, per_axis):
        rng = np.random.default_rng(20 + d)
        for _ in range(20):
            A, B = (from_blocks(d, {
                tuple(int(v) for v in rng.integers(-3, 4, d)):
                    rng.uniform(-2, 2, (2, 2)) + 1j * rng.uniform(-2, 2, (2, 2))
                for _ in range(int(rng.integers(1, 6)))}) for _ in range(2))
            rho = float(rng.uniform(0.05, 0.5))
            got = strip_norm(A, B, rho, points_per_dim=per_axis).value
            ref = self._ref_strip_norm(A, B, rho, per_axis)
            assert got == pytest.approx(ref, rel=1e-14)

    # 256 points per axis while a face has at most 2^16 nodes, then the
    # largest count that keeps it there; 2^d corner faces plus the real torus
    @pytest.mark.parametrize("d, per_axis", [(1, 256), (2, 256), (3, 40),
                                             (4, 16), (5, 9)])
    def test_default_face_grid(self, d, per_axis):
        a = from_blocks(d, {(1,) + (0,) * (d - 1): np.eye(2)})
        b = from_blocks(d, {})
        r = strip_norm(a, b, rho=0.25)
        assert r.samples == (2 ** d + 1) * per_axis ** d
        assert r.value == pytest.approx(math.exp(2 * math.pi * 0.25), rel=1e-12)


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
        assert [e.coeffs for e in j.entries] == [e.coeffs for e in s.entries]

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

    @pytest.mark.parametrize("v_per", [(0.0,), (0.0, 1.0)])
    def test_jacobi_periodic_rejects_complex_potential(self, v_per):
        with pytest.raises(ValueError, match="real-valued"):
            jacobi_periodic(TrigPoly(1, {(1,): 1.0}), 1.0, v_per, 0.2,
                            Frequency((GOLDEN,)))

    def test_jacobi_rejects_zero_a(self):
        with pytest.raises(IdenticallySingular):
            jacobi(0.0, TrigPoly(1, {}), 0.0, Frequency((GOLDEN,)))

    def test_jacobi_periodic_q2_alternating_background(self):
        om = Frequency((GOLDEN,))
        jp = jacobi_periodic(0.0, 1.0, (0.0, 1.0), 0.0, om)
        assert [e.coeffs for e in jp.entries] == [{(0,): -1}, {(0,): 1}, {},
                                                  {(0,): -1}]

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

    @pytest.mark.parametrize("A", [
        amo(3.0, 0.3), schrodinger(TrigPoly.cosine((1, 0), 2.0)
                                   + TrigPoly.cosine((0, 1)), 0.3, d=2),
        TrigPolyMatrix.constant(1, [[0.0, 4.0], [-0.25, 0.0]]),
        TrigPolyMatrix.constant(1, [[2.0, 3.0], [1.0, 2.0]])])
    def test_computed_unit_determinant_is_not_wrapped(self, A):
        # each of e11 e22 and e12 e21 has a zero factor or two real
        # constants, so the computed det is exactly 1 and the wrapper
        # would change no bit
        assert renormalize(A) is A
        X = np.random.default_rng(8).random((512, A.d))
        assert same_bits(RenormalizedMatrix(A).eval_many(X), A.eval_many(X))
        assert np.all(det_2x2(A.eval_many(X)) == 1.0)
        # a floor above 1 marks every node singular, so the wrapper stays
        assert isinstance(renormalize(A, floor=2.0), RenormalizedMatrix)

    def test_rotation_keeps_its_wrapper(self):
        # det_scalar is exactly 1, but cos^2 + sin^2 does not compute to 1
        c, s = TrigPoly.cosine((1,)), TrigPoly.sine((1,))
        rot = TrigPolyMatrix(c, -s, s, c, rho=0.5)
        assert det_scalar(rot).coeffs == {(0,): 1.0}
        assert isinstance(renormalize(rot), RenormalizedMatrix)
        X = np.random.default_rng(9).random((512, 1))
        assert np.any(det_2x2(rot.eval_many(X)) != 1.0)

    def test_identically_singular_rejected(self):
        m = TrigPolyMatrix.constant(1, [[1.0, 0], [0, 0]])
        with pytest.raises(IdenticallySingular):
            renormalize(m)

    def test_pointwise_singular_raises(self):
        # det = e^{2 pi i x} - 1 vanishes exactly at x = 0 in floats
        f = TrigPoly(1, {(1,): 1.0, (0,): -1.0})
        m = TrigPolyMatrix(f, TrigPoly(1, {}), TrigPoly(1, {}),
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

    @pytest.mark.parametrize("k", [(-2,), (1, -3), (-200,)])
    def test_scale_past_the_exp_range_overflows(self, k):
        with pytest.raises(OverflowError, match=r"ln\(DBL_MAX\) = 709\.783"):
            DiscontinuityExample(k)

    def test_largest_scale_below_the_exp_range_is_finite(self):
        ex = DiscontinuityExample((-1,))
        assert ex.scale == pytest.approx(math.exp(2 * math.pi))
        X = (np.arange(64)[:, None] + 0.5) / 64
        assert np.all(np.isfinite(ex.eval_many(X)))

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
        # a power-of-two constant reads ln 2 exactly at every N; any other
        # constant keeps a fraction of a power of two in its running
        # product, so its reads agree to an ulp
        c = Cocycle(TrigPolyMatrix.constant(1, [[2.0, 0], [0, 0.5]]),
                    Frequency((GOLDEN,)))
        for N in (1, 2, 3, 4, 8, 16, 47, 64):
            assert iterate_log_norm(c, N, (0.0,)).log_norm_avg == math.log(2.0)
        m = TrigPolyMatrix.constant(1, [[3.0, 0], [0, 1 / 3]])
        c = Cocycle(m, Frequency((GOLDEN,)))
        for N in (1, 2, 4, 8, 16, 64):
            got = iterate_log_norm(c, N, (0.0,)).log_norm_avg
            assert abs(got - math.log(3.0)) <= math.ulp(math.log(3.0))

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

    # per dimension: the potential's indices, an automorphism of Z^d and a
    # frequency
    SINGLE_VS_BATCH = {
        1: ([(1,), (3,)], [[1]], (GOLDEN,)),
        2: ([(2, -1), (3, 1)], [[2, 3], [1, 2]], (GOLDEN, 2**0.5 - 1)),
        3: ([(1, -2, 3), (2, 1, -1)], [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
            (GOLDEN, 2**0.5 - 1, 10**0.5 - 3)),
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_matches_single(self, d):
        # a node's bits do not depend on the batch it is evaluated in
        indices, B, w = self.SINGLE_VS_BATCH[d]
        v = TrigPoly.cosine(indices[0], 2.0) + TrigPoly.cosine(indices[1], 1.5)
        p = v + TrigPoly.sine(indices[1], 0.5)
        A = schrodinger(v, 0.3, d=d)
        c = Cocycle(A, Frequency(w))
        X = np.random.default_rng(d).random((64, d))
        avg, under = iterate_log_norm_many(c, 20, X)
        assert not under.any()
        evaluators = (p, A, DiscontinuityExample(indices[0]),
                      ComposedMatrix(A, Automorphism.from_entries(B)))
        batches = [e.eval_many(X) for e in evaluators]
        for i, x in enumerate(X):
            assert avg[i].hex() == iterate_log_norm(c, 20, x).log_norm_avg.hex()
            for e, batch in zip(evaluators, batches):
                assert same_bits(np.asarray(e.eval(x)), batch[i])

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
