import math

import numpy as np
import pytest

from cocyclelab import avalanche
from cocyclelab.avalanche import (
    AP_BLOCK,
    AP_BLOCK_MATRICES,
    APReport,
    _block,
    _block_reports,
    _norm_terms,
    _product_logs,
    _validated,
    ap_check,
    ap_consequence_check,
    ap_ensemble,
    ap_variant_check,
    ensemble_to_csv,
    random_hyperbolic_chain,
)
from cocyclelab._util import op_norm_2x2, pairwise_total, to_json_text
from cocyclelab.cocycle import (
    Cocycle,
    TrigPolyMatrix,
    amo,
    iterate_log_norm,
    iterate_log_norm_many,
)
from cocyclelab._util import MAX_NODES
from cocyclelab.errors import (ChainTooShort, NotDivisible, NotUnimodular,
                               ScanTooLarge)
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


def _report(terms: tuple, variant: bool, C: float) -> APReport:
    """One chain's report: the all-j form if variant, else the interior.

    The per-chain report builder that the block reports replaced, kept
    verbatim as the reference."""
    n, v, w, logs = terms
    mu = float(np.exp(np.min(v)))
    # The telescoped grouping [chain - sum ln||A_j||] - [sum of gaps] equals
    # ln||P|| + (middle sums) - (pair sums) exactly in real arithmetic, and
    # cancels bitwise for identical chains where the naive three-term sum
    # leaves rounding residue.
    gaps = w - v[:-1] - v[1:]
    signed = (pairwise_total(logs) - pairwise_total(v)) - pairwise_total(gaps)
    max_gap = float(np.max(np.abs(gaps)))
    gap_ok = bool(max_gap <= 0.5 * math.log(mu))
    if not variant:
        return APReport(
            kind="interior", n=n, mu=mu, C=C,
            hypothesis_min_norm_ok=bool(mu > n), hypothesis_gap_ok=gap_ok,
            max_gap=max_gap, residual=abs(signed), bound=C * n / mu)
    # all-j middle sum = interior grouping + the two boundary terms
    signed = signed + v[0] + v[n - 1]
    window_ok = bool(mu > math.e and float(np.max(v)) < C * math.log(mu))
    return APReport(
        kind="all-j", n=n, mu=mu, C=C,
        hypothesis_min_norm_ok=window_ok, hypothesis_gap_ok=gap_ok,
        max_gap=max_gap, residual=abs(signed),
        bound=n / mu ** (1.0 / 3.0) + 4.0 * C * math.log(mu))


def _chain_terms(chains):
    """(n, v, w, logs) for each chain, in input order, from one block of
    all of them."""
    ns, E = _block(chains)
    starts = np.cumsum(ns) - ns
    v, w = _norm_terms(E, int(ns.sum()))
    logs = _product_logs(ns, starts, E)
    return [(n, v[a:a + n], w[a:a + n - 1], logs[a:a + n])
            for n, a in zip(ns.tolist(), starts.tolist())]


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

        def recording(ns, E, variant, C):
            blocks.append(ns.tolist())
            return _block_reports(ns, E, variant, C)

        monkeypatch.setattr(avalanche, "AP_BLOCK_MATRICES", 300)
        monkeypatch.setattr(avalanche, "_block_reports", recording)
        res = ap_ensemble(40, seed=2, variant=True)
        lengths = [n for b in blocks for n in b]
        assert len(lengths) == 40 and len(blocks) > 2
        # a block holds at most 300 matrices: the chain that would overflow
        # it starts the next one
        for b, after in zip(blocks, blocks[1:]):
            assert sum(b) <= 300 < sum(b) + after[0]
        assert sum(blocks[-1]) <= 300
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


# ---------------------------------------------------------------------------
# Block reports: one pass per block, whatever the blocks
# ---------------------------------------------------------------------------

# (AP_BLOCK, AP_BLOCK_MATRICES): blocks of at most n_max matrices (one
# chain at n_max 3), of at most max(7, n_max), the caps before block
# reports, the current caps, and one block for the whole ensemble
CAPS = {"tight": (1, 1), "seven-matrices": (AP_BLOCK, 7),
        "previous": (64, 1 << 16), "current": (AP_BLOCK, AP_BLOCK_MATRICES),
        "unbounded": (10**9, 10**9)}
CHAINS_AT = {3: 200, 100: 120, 1000: 12}


def _ensemble_bytes(chains, seed, n_max, variant):
    res = ap_ensemble(chains, seed=seed, n_max=n_max, variant=variant)
    return ([to_json_text(r) for r in res.reports],
            np.float64(res.worst_ratio).tobytes(), res.all_within)


@pytest.mark.parametrize("n_max", sorted(CHAINS_AT))
@pytest.mark.parametrize("seed", [0, 1, 11])
@pytest.mark.parametrize("variant", [False, True], ids=["interior", "all-j"])
def test_real_arithmetic_ensemble_does_not_depend_on_the_blocks(
        variant, seed, n_max, monkeypatch):
    chains = CHAINS_AT[n_max]
    results = {}
    for name, (block, matrices) in CAPS.items():
        monkeypatch.setattr(avalanche, "AP_BLOCK", block)
        monkeypatch.setattr(avalanche, "AP_BLOCK_MATRICES", matrices)
        results[name] = _ensemble_bytes(chains, seed, n_max, variant)
    first = results.pop("tight")
    for name, got in results.items():
        assert got == first, name


WINDOW = 101.0 / 99.0


def _reference_reports(chains, reference, variant):
    C = WINDOW if variant else 10.0
    return [to_json_text(_report(reference(m), variant, C)) for m in chains]


@pytest.mark.parametrize("variant", [False, True], ids=["interior", "all-j"])
@pytest.mark.parametrize("count", [1, 2, 65])
def test_real_arithmetic_block_reports_equal_chain_reports(count, variant):
    C = WINDOW if variant else 10.0
    for mu in (1e3, 1e40):
        rng = np.random.default_rng(count)
        chains = [random_hyperbolic_chain(rng, int(rng.integers(3, 101)), mu)
                  for _ in range(count)]
        got = [to_json_text(r)
               for r in _block_reports(*_block(chains), variant, C)]
        assert got == _reference_reports(chains, reference_chain_terms,
                                         variant)


@pytest.mark.parametrize("variant", [False, True], ids=["interior", "all-j"])
@pytest.mark.parametrize("count", [1, 2, 65])
def test_real_arithmetic_complex_block_reports_equal_chain_reports(count,
                                                                   variant):
    C = WINDOW if variant else 10.0
    chains = complex_sl2_chains(count, seed=300 + count)
    got = [to_json_text(r)
           for r in _block_reports(*_block(chains), variant, C)]
    assert got == _reference_reports(chains, kernel_order_chain_terms,
                                     variant)
    # one chain at a time through the public checks, too
    check = ap_variant_check if variant else ap_check
    assert [to_json_text(check(m)) for m in chains] == got


def test_block_names_the_bad_matrix_within_its_chain():
    chains = [diag_chain(10.0, 5), diag_chain(10.0, 6), diag_chain(10.0, 4)]
    chains[1][4] *= 1.5
    chains[2][0] *= 2.0
    with pytest.raises(NotUnimodular, match="^matrix 4 has det"):
        _block_reports(*_block(chains), False, 10.0)


# ---------------------------------------------------------------------------
# Memory: tracemalloc peaks of the benchmark's ensembles and a long one
# ---------------------------------------------------------------------------

def _traced_peak(fn):
    import tracemalloc
    fn()   # lazy imports and caches first
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_memory_budget_of_the_benchmark_ensembles():
    def run():
        ap_ensemble(600, seed=1, n_max=100)
        ap_ensemble(300, seed=1, n_max=100, variant=True)
    # MiB; 0.82 with blocks of 64 chains, which took 15 blocks, not 3
    assert _traced_peak(run) <= 1.35


def test_memory_budget_of_a_long_ensemble():
    # 6.7 MiB with blocks of 64 chains
    assert _traced_peak(lambda: ap_ensemble(300, seed=1, n_max=1000)) <= 5.5


# ---------------------------------------------------------------------------
# Named guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, message", [
    ({"chains": 0}, "^chains must be at least 1, got 0$"),
    ({"chains": -3}, "^chains must be at least 1, got -3$"),
    ({"chains": 5, "n_max": 2}, "^n_max must be at least 3, got 2$"),
    ({"chains": 5, "mu": 1.0}, "^mu must exceed 1, got 1.0$"),
    ({"chains": 5, "mu": 0.5}, "^mu must exceed 1, got 0.5$"),
    ({"chains": 5, "mu": math.nan}, "^mu must exceed 1, got nan$"),
])
def test_ensemble_guards_name_the_parameter(kwargs, message, monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew before the guard")

    monkeypatch.setattr(avalanche.np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=message):
        ap_ensemble(**kwargs)


def _no_draws(monkeypatch):
    def fail(*args):
        raise AssertionError("drew before the guard")

    monkeypatch.setattr(avalanche, "_draw_chain", fail)
    monkeypatch.setattr(avalanche.np.random, "default_rng", fail)


@pytest.mark.parametrize("mu", [1e152, 1e155, 1e160, math.inf])
def test_ensemble_mu_past_the_norm_range_is_named(mu, monkeypatch):
    # at mu = 1e152 the pair products' norm terms overflowed to inf and nan
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match=r"^mu must keep 2 mu\^\(2 WINDOW_EXPONENT\) "
                                         r"finite .*, got (1e\+1\d\d|inf)$"):
        ap_ensemble(300, seed=1, mu=mu, n_max=20)


def test_ensemble_at_the_largest_admitted_mu_is_finite():
    def admitted(mu):
        try:
            ap_ensemble(1, mu=mu, n_max=3)
        except ValueError:
            return False
        return True

    lo, hi = 1e150, 1e152
    assert admitted(lo) and not admitted(hi)
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    assert 8.4e150 < lo < 8.5e150
    # warnings are errors under pytest: no overflow warning either
    for variant in (False, True):
        res = ap_ensemble(300, seed=1, mu=lo, n_max=20, variant=variant)
        assert all(math.isfinite(v) for r in res.reports
                   for v in (r.max_gap, r.residual, r.bound))
        assert math.isfinite(res.worst_ratio)


@pytest.mark.parametrize("chains, n_max", [(1, 10**9), (MAX_NODES // 100 + 1, 100)])
def test_ensemble_past_the_matrix_guard_raises_before_allocating(
        chains, n_max, monkeypatch):
    _no_draws(monkeypatch)

    def no_blocks(*args, **kwargs):
        raise AssertionError("allocated before the guard")

    monkeypatch.setattr(avalanche.np, "empty", no_blocks)
    with pytest.raises(ScanTooLarge, match=f"exceed the guard of {MAX_NODES} "):
        ap_ensemble(chains, n_max=n_max)
