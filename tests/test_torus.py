import inspect
import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocyclelab import torus
from cocyclelab.errors import NotCoprime, NotUnimodular, ScanTooLarge
from cocyclelab.torus import (
    WORD,
    Automorphism,
    _convergent_scan,
    _det_inverse,
    _dyadic,
    _lattice_scan,
    Frequency,
    build_automorphism,
    dist_to_Z,
    freq_norm,
    frequency_multiple,
    min_dot_norm,
    torus_distance,
)

GOLDEN = 0.6180339887
MAX_ROWS = inspect.signature(_lattice_scan).parameters["max_rows"].default


def brute_min_dot(omega, K):
    """Independent oracle: full-lattice scan in exact rational arithmetic.

    Each component is the exact rational its double holds. Returns
    (delta, argmin_k) with delta a Fraction; argmin_k is the smallest
    minimizer by (max-norm, lex) after flipping each k into the half-space
    whose first nonzero component is positive.
    """
    w = [Fraction(c) for c in omega]
    best = None
    for k in itertools.product(range(-K, K + 1), repeat=len(w)):
        if not any(k):
            continue
        t = sum(kj * wj for kj, wj in zip(k, w))
        dist = abs(t - round(t))
        sign = 1 if next(v for v in k if v) > 0 else -1
        canon = tuple(sign * v for v in k)
        key = (dist, max(abs(v) for v in k), canon)
        if best is None or key < best:
            best = key
    return best[0], best[2]


def brute_min_dot_1d(w, K):
    """(delta, k) of the d=1 minimum by an exact vectorized scan of 1..K."""
    num, den = w.as_integer_ratio()
    r = np.arange(1, K + 1, dtype=object) * num % den
    dist = np.minimum(r, den - r)
    i = int(np.argmin(dist))  # first minimum: smallest k
    return Fraction(int(dist[i]), den), i + 1


# Residue helpers of the reference scan, kept apart from the module so that
# the reference shares no residue code with the scan it checks.

def _times(v: np.ndarray, m: int, modulus: int) -> np.ndarray:
    """v * m mod modulus for an int64 array v: uint64 when modulus is 2^64
    (the product wraps mod 2^64 by itself), Python ints otherwise."""
    if modulus == 1 << WORD:
        return v.astype(np.uint64) * np.uint64(m)
    return np.array([int(x) * m % modulus for x in v], dtype=object)


def _plus(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """a + b mod modulus for residue arrays of one kind (broadcasting)."""
    total = a + b
    return total if total.dtype == np.uint64 else total % modulus


def _fold(r: np.ndarray, modulus: int) -> np.ndarray:
    """min(r, modulus - r) elementwise: modulus times the distance to Z."""
    neg = -r if r.dtype == np.uint64 else (modulus - r) % modulus
    return np.minimum(r, neg)


def _box_residues(ms: Sequence[int], K: int, modulus: int) -> tuple:
    """Residues k . m mod modulus and max-norms over the box [-K, K]^len(ms),
    flattened in lexicographic order."""
    side = np.arange(-K, K + 1, dtype=np.int64)
    res = _times(np.zeros(1, dtype=np.int64), 0, modulus)
    norm = np.zeros(1, dtype=np.int64)
    for m in ms:
        res = _plus(res[:, None], _times(side, m, modulus), modulus).ravel()
        norm = np.maximum.outer(norm, np.abs(side)).ravel()
    return res, norm


def blocked_scan(ms, modulus, K, max_rows=1 << 19):
    """Smallest (dist, max-norm, k) over the canonical half-space.

    Reference for _lattice_scan: it visits every lattice point. dist is
    modulus times dist_to_Z(k . omega). The half-space holds the
    nonzero k in [-K, K]^d whose first nonzero component is positive;
    dist is even in k, so it is exhaustive, and ordering ties by
    (max-norm, lex) within it fixes the result. The lead-zero part recurses
    one dimension down. For lead v >= 1 the inner box [-K, K]^(d-1) is
    split into chunks (a prefix over its leading axes, the full box over
    its trailing axes); a block of lead residues is added to a chunk's
    residues, and no block exceeds max_rows elements.
    """
    if len(ms) == 1:
        return _convergent_scan(ms[0], modulus, K)
    dist, norm, k = blocked_scan(ms[1:], modulus, K, max_rows)
    best = (dist, norm, (0,) + k)
    inner = len(ms) - 1
    tail = inner
    while tail > 1 and (2 * K + 1)**tail > max_rows:
        tail -= 1
    pre_res, pre_norm = _box_residues(ms[1:1 + inner - tail], K, modulus)
    tail_res, tail_norm = _box_residues(ms[1 + inner - tail:], K, modulus)
    n = tail_res.size
    step = max(1, max_rows // n)
    for i in range(pre_res.size):
        chunk_res = _plus(tail_res, pre_res[i], modulus)
        chunk_norm = np.maximum(tail_norm, pre_norm[i])
        for v0 in range(1, K + 1, step):
            leads = np.arange(v0, min(K + 1, v0 + step), dtype=np.int64)
            r = _plus(_times(leads, ms[0], modulus)[:, None], chunk_res, modulus)
            lo, hi = int(r.min()), int(r.max())
            cmin = min(lo, (modulus - hi) % modulus)
            if cmin > best[0]:
                continue
            iv, iu = np.divmod(np.flatnonzero(_fold(r, modulus) <= cmin), n)
            norms = np.maximum(leads[iv], chunk_norm[iu])
            j = int(np.argmin(norms))  # first minimum: lex order within block
            rest = np.unravel_index(i * n + int(iu[j]), (2 * K + 1,) * inner)
            cand = (cmin, int(norms[j]),
                    (int(leads[iv[j]]),) + tuple(int(t) - K for t in rest))
            if cand < best:
                best = cand
    return best


# Components of omega for the exact-scan properties: any double in [0, 1),
# dyadic p/2^j, decimal rationals p/q, and doubles below 2^-12 (whose
# denominators exceed 2^64 and take the Python-int path).
COMPONENTS = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1, 10).flatmap(
        lambda j: st.integers(0, 2**j - 1).map(lambda p: p / 2**j)),
    st.integers(2, 40).flatmap(
        lambda q: st.integers(0, q - 1).map(lambda p: p / q)),
    st.floats(2.0**-70, 2.0**-12, exclude_max=True),
)
MAX_K = {1: 40, 2: 6, 3: 3}


@st.composite
def scan_cases(draw):
    d = draw(st.integers(1, 3))
    comps = draw(st.lists(COMPONENTS, min_size=d, max_size=d))
    return comps, draw(st.integers(1, MAX_K[d]))


@st.composite
def blocked_cases(draw):
    """(components, K, max_rows) past the reach of brute_min_dot; components
    include 0, 1/2, 1/4 and 2^-70 (residues mod 2^b with b > 64). At d=4 a
    small max_rows splits the middle box into a prefix and a tail."""
    d = draw(st.integers(2, 4))
    comp = st.one_of(COMPONENTS, st.sampled_from([0.0, 0.5, 0.25, 2.0**-70]))
    comps = draw(st.lists(comp, min_size=d, max_size=d))
    K = draw(st.integers(1, {2: 60, 3: 15, 4: 4}[d]))
    return comps, K, draw(st.sampled_from([1, 7, 2 * K + 1, MAX_ROWS]))


class TestDistToZ:
    def test_symmetry_of_nearest_integer(self):
        assert dist_to_Z(0.75) == 0.25

    def test_integer_input(self):
        assert dist_to_Z(0.0) == 0.0
        assert dist_to_Z(-3.0) == 0.0

    def test_golden_multiple(self):
        assert dist_to_Z(8 * GOLDEN) == pytest.approx(0.0557281, abs=1e-7)

    def test_array_input(self):
        out = dist_to_Z(np.array([0.75, 0.5, 1.25]))
        assert np.allclose(out, [0.25, 0.5, 0.25])

    @given(st.floats(-1e6, 1e6))
    def test_range_and_period(self, t):
        v = dist_to_Z(t)
        assert 0.0 <= v <= 0.5
        assert dist_to_Z(t + 1.0) == pytest.approx(v, abs=1e-9)


class TestFrequency:
    def test_reduction_mod_1(self):
        f = Frequency([1.25, -0.25])
        assert f.components == (0.25, 0.75)
        assert f.d == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Frequency([])

    @pytest.mark.parametrize("c", [10**400, -(10**400)])
    def test_integer_past_the_double_range_is_not_finite(self, c):
        # float(10**400) raises OverflowError; it must read as a bad value
        with pytest.raises(ValueError, match="must be finite"):
            Frequency([0.5, c])

    @pytest.mark.parametrize("comps, want", [
        ([-1e-20], (0.0,)),
        ([-1e-300, 0.5], (0.0, 0.5)),
        ([-5e-324], (0.0,)),
        ([-2.0**-54], (0.0,)),           # 1 - 2^-54 ties to even, 1.0
        ([-2.0**-53], (1.0 - 2.0**-53,)),
    ])
    def test_a_residue_that_rounds_to_one_is_zero(self, comps, want):
        got = Frequency(comps).components
        assert got == want
        assert all(0.0 <= c < 1.0 for c in got)


class TestFreqNorm:
    def test_both_components_integral(self):
        assert freq_norm(Frequency([1 / 3, 1 / 2]), 6) == 0.0

    def test_single_component_matches_dist(self):
        assert freq_norm(Frequency([GOLDEN]), 8) == pytest.approx(0.0557281, abs=1e-7)

    def test_sum_of_components(self):
        assert freq_norm(Frequency([0.25, 0.25]), 1) == pytest.approx(0.5)

    @given(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=4),
           st.integers(1, 50))
    def test_reflection_invariance(self, comps, q):
        a = freq_norm(Frequency(comps), q)
        b = freq_norm(Frequency([1.0 - c for c in comps]), q)
        assert a == pytest.approx(b, abs=1e-9)


class TestFrequencyMultiple:
    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3),
           st.integers(1, 50))
    # 3 fl(1/3) = 1 - 2^-54 exactly, which rounds to 1.0: 0.0 on the circle
    @example(comps=[1 / 3], q=3)
    def test_exact_and_rounded_once(self, comps, q):
        got = frequency_multiple(Frequency(comps), q).components
        want = (float(q * Fraction(c) % 1) for c in comps)
        assert got == tuple(r if r < 1.0 else 0.0 for r in want)

    def test_differs_from_float_multiplication(self):
        # 3 * w rounds before the reduction mod 1
        w = 0.4142135623730951
        assert frequency_multiple(Frequency([w]), 3).components[0] != (3 * w) % 1
        assert frequency_multiple(Frequency([w]), 1) == Frequency([w])


class TestMinDotNorm:
    def test_exact_resonance(self):
        rep = min_dot_norm(Frequency([0.5]), 2)
        assert rep.delta == 0.0
        assert rep.argmin_k == (2,)

    def test_golden_K10(self):
        rep = min_dot_norm(Frequency([GOLDEN]), 10)
        assert rep.delta == pytest.approx(0.0557, abs=1e-4)
        assert rep.argmin_k == (8,)
        assert (rep.delta, rep.argmin_k) == (float(brute_min_dot([GOLDEN], 10)[0]), (8,))

    def test_two_dim_against_oracle(self):
        omega = [math.sqrt(2) - 1, math.sqrt(3) - 1]
        rep = min_dot_norm(Frequency(omega), 5)
        delta, k = brute_min_dot(omega, 5)
        assert rep.delta == float(delta)
        assert rep.argmin_k == k
        assert 0 < max(abs(v) for v in k) <= 5

    def test_non_increasing_in_K(self):
        f = Frequency([GOLDEN])
        deltas = [min_dot_norm(f, K).delta for K in range(1, 13)]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_scan_guard(self):
        with pytest.raises(ScanTooLarge):
            min_dot_norm(Frequency([0.1, 0.2]), 10**5)

    def test_decimal_rational_is_dyadic(self):
        # 7 * fl(3/7) rounds to 3.0 in floating point, but the double 3/7 is
        # a dyadic rational and 7 times it misses 3 by 3 * 2^-54
        rep = min_dot_norm(Frequency((3 / 7,)), 2**20)
        assert rep.delta == float.fromhex("0x1.8p-53")
        assert rep.argmin_k == (7,)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scan_cases())
    def test_equals_exact_brute_force(self, case):
        comps, K = case
        rep = min_dot_norm(Frequency(comps), K)
        delta, k = brute_min_dot(Frequency(comps).components, K)
        assert rep.delta == float(delta)
        assert rep.argmin_k == k

    @pytest.mark.parametrize("w", [GOLDEN, math.sqrt(2) - 1, math.pi - 3,
                                   3 / 7, 0.1, 2.0**-40 * GOLDEN, 0.12345678])
    def test_convergents_match_integer_scan_at_large_K(self, w):
        for K in (1, 2, 7, 1000, 99_991, 10**5):
            rep = min_dot_norm(Frequency([w]), K)
            delta, k = brute_min_dot_1d(w, K)
            assert (rep.delta, rep.argmin_k) == (float(delta), (k,))

    def test_block_size_does_not_change_the_result(self):
        omega = Frequency([GOLDEN, 3 / 8, 2.0**-30])
        ms, modulus = _dyadic(omega)
        ref = _lattice_scan(ms, modulus, 4)
        for rows in (1, 3, 9, 80):
            assert _lattice_scan(ms, modulus, 4, max_rows=rows) == ref

    def test_ties_across_middle_box_prefixes_go_by_lex_order(self):
        # omega = (a, b, c, e) with c = ((4a - b) mod 1)/2 and e = 2c - a
        # mod 1, for a and b odd multiples of 2^-20: for |k| far below 2^20,
        # k . omega is an integer exactly when k1 + 2 k3 + 3 k4 = 0 and
        # 2 k2 = k3 + 2 k4. In
        # the box |k| <= 2 only (1, 0, -2, 1) and (2, -1, 2, -2) solve both,
        # at max-norm 2; their outers sit at flat positions 10 and 34 of the
        # lex walk, so below 25 rows they fall in different chunks, and the
        # first is lex first
        a, b = Fraction(0x9E3B5, 2**20), Fraction(0x6A09F, 2**20)
        c = (4 * a - b) % 1 / 2
        omega = Frequency([float(v) for v in (a, b, c, (2 * c - a) % 1)])
        ms, modulus = _dyadic(omega)
        want = blocked_scan(ms, modulus, 2)
        assert want == (0, 2, (1, 0, -2, 1))
        for rows in (1, 7, MAX_ROWS):
            assert _lattice_scan(ms, modulus, 2, max_rows=rows) == want

    def test_a_smaller_norm_in_a_later_chunk_wins_a_tie(self):
        # omega = (a, 4a, -a) mod 1 resonates at k exactly when
        # k1 + 4 k2 - k3 = 0. The first such k of the lex walk, (1, -1, -3),
        # has its outer at flat position 2 and max-norm 3; the outer of
        # (1, 0, 1), at position 3, ties it at distance 0 and wins on
        # max-norm 1
        a = 0.9625883321438885
        omega = Frequency([a, 4 * a % 1, 1 - a])
        ms, modulus = _dyadic(omega)
        want = blocked_scan(ms, modulus, 3)
        assert want == (0, 1, (1, 0, 1))
        for rows in (1, 2, 3, MAX_ROWS):
            assert _lattice_scan(ms, modulus, 3, max_rows=rows) == want

    @pytest.mark.parametrize("comps, want, expanded", [
        # every outer ties at distance 0. The lead-zero part holds (0, 2, 2)
        # at max-norm 2; the first outer below it, (1, -1), wins at
        # (1, -1, -1), and no later outer has max-norm below 1
        ((1 / 2, 3 / 8, 1 / 8), (0, 1, (1, -1, -1)), 1),
        # the lead-zero part holds (0, 1, 1) at max-norm 1: no outer is below
        ((1 / 8, 3 / 8, 5 / 8), (0, 1, (0, 1, 1)), 0),
    ])
    def test_a_tie_expands_only_outers_that_can_win(self, comps, want,
                                                     expanded, monkeypatch):
        # an outer of the best's max-norm comes later in lex order than the
        # best, so it cannot win a tie and is not expanded. One row a chunk
        # expands one outer per _points call on the full box.
        ms, modulus = _dyadic(Frequency(comps))
        points, calls = torus._points, []

        def counting(flat, shape, K):
            calls.append(len(shape))
            return points(flat, shape, K)

        monkeypatch.setattr(torus, "_points", counting)
        assert _lattice_scan(ms, modulus, 8, max_rows=1) == want
        assert calls.count(len(comps)) == expanded
        monkeypatch.undo()
        assert blocked_scan(ms, modulus, 8) == want

    @pytest.mark.parametrize("d, K", [(3, 4), (4, 2)])
    def test_chunks_that_split_a_row_of_middle_outers(self, d, K):
        # a lead's outers are (2K+1)^(d-2) consecutive flat positions; these
        # chunk sizes cut such rows at varying offsets. Components p/8 make
        # many k tie at distance 0 across the cuts.
        rng = np.random.default_rng(d)
        for _ in range(4):
            for comps in (rng.random(d), rng.integers(0, 8, size=d) / 8):
                ms, modulus = _dyadic(Frequency(comps))
                want = blocked_scan(ms, modulus, K)
                for rows in (1, 2 * K, 2 * K + 2, 13):
                    assert _lattice_scan(ms, modulus, K, max_rows=rows) == want

    # the first three need b > 64 and have no exact relation; the last two
    # tie at distance 0 (the first through (1, -2, 0) and (1, 2, 0), the
    # second through its lead-zero part) and take Python ints all the same
    @pytest.mark.parametrize("comps", [(2.0**-70 * 3, GOLDEN, 0.3),
                                       (GOLDEN, 2.0**-70 * 3, 0.3),
                                       (GOLDEN, 0.3, 2.0**-70 * 3),
                                       (0.5, 0.25, 2.0**-70 * 3),
                                       (2.0**-70 * 3, 0.5, 0.25)])
    def test_python_int_residues_in_small_chunks(self, comps):
        ms, modulus = _dyadic(Frequency(comps))
        assert modulus > 1 << WORD
        want = blocked_scan(ms, modulus, 6)
        for rows in (1, 5, 13, MAX_ROWS):
            assert _lattice_scan(ms, modulus, 6, max_rows=rows) == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(blocked_cases())
    def test_equals_blocked_scan(self, case):
        comps, K, rows = case
        ms, modulus = _dyadic(Frequency(comps))
        assert (_lattice_scan(ms, modulus, K, max_rows=rows)
                == blocked_scan(ms, modulus, K))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(blocked_cases())
    def test_public_scans_equal_blocked_scan(self, case):
        comps, K, _ = case
        omega = Frequency(comps)
        ms, modulus = _dyadic(omega)
        dist, _, k = blocked_scan(ms, modulus, K)
        rep = min_dot_norm(omega, K)
        assert (rep.delta, rep.argmin_k) == (dist / modulus, k)

    @pytest.mark.parametrize("comps, K, argmin", [
        ((math.sqrt(2) - 1, (math.sqrt(5) - 1) / 2), 31622, None),  # the guard
        # the blocked scan's argmin, found in 8 s and 12.1 MiB
        ((math.sqrt(2) - 1, (math.sqrt(5) - 1) / 2, (math.sqrt(13) - 3) / 2),
         1000, (781, 890, -811)),
        ((1e-5, (math.sqrt(5) - 1) / 2), 1000, None),  # b = 69: Python ints
        # every even lead ties at distance 0: 1000 outers are expanded
        ((0.5, GOLDEN), 2000, (2, 0)),
    ])
    def test_runtime_and_memory_budget(self, comps, K, argmin):
        # no array holds more than max(max_rows, 2K+1) elements, and few are
        # alive at once
        omega = Frequency(comps)
        t0 = time.perf_counter()
        rep = min_dot_norm(omega, K)
        assert time.perf_counter() - t0 < 2.0
        tracemalloc.start()
        try:
            assert min_dot_norm(omega, K) == rep
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * max(MAX_ROWS, 2 * K + 1) * 8
        assert argmin in (None, rep.argmin_k)


# Exact rational relations k . omega in Z: min_dot_norm reports delta == 0
# and its smallest witness by (max-norm, lex).

# Components with small power-of-two denominators, so that many k reach
# distance 0 at one max-norm.
DYADIC = st.integers(0, 3).flatmap(
    lambda j: st.integers(0, 2**j - 1).map(lambda p: p / 2**j))


class TestRationalDependence:
    def test_half_in_two_dim(self):
        rep = min_dot_norm(Frequency([0.5, 1 / 3]), 3)
        assert (rep.delta, rep.argmin_k) == (0.0, (2, 0))

    def test_golden_has_no_small_resonance(self):
        assert min_dot_norm(Frequency([GOLDEN]), 10).delta > 1e-12

    def test_complementary_pair(self):
        # 1 - GOLDEN is exact, so GOLDEN + (1 - GOLDEN) is the integer 1
        a = GOLDEN
        rep = min_dot_norm(Frequency([a, 1 - a]), 2)
        assert (rep.delta, rep.argmin_k) == (0.0, (1, 1))

    def test_exactness_semantics_with_tol_zero(self):
        # 0.5 is a dyadic rational and 2 * 0.5 is the integer 1
        rep = min_dot_norm(Frequency([0.5]), 4)
        assert (rep.delta, rep.argmin_k) == (0.0, (2,))
        # the double 0.3 has denominator 2^54, so no k <= 4 makes k * 0.3 an integer
        assert min_dot_norm(Frequency([0.3]), 4).delta > 0
        # nor does 7 * fl(3/7), though it rounds to 3.0 in floating point
        rep = min_dot_norm(Frequency([3 / 7]), 10)
        assert (rep.delta, rep.argmin_k) == (3 * 2.0**-54, (7,))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.lists(DYADIC, min_size=d, max_size=d), st.integers(1, MAX_K[d]))))
    def test_equals_exact_brute_force(self, case):
        comps, K = case
        rep = min_dot_norm(Frequency(comps), K)
        delta, k = brute_min_dot(comps, K)
        assert (rep.delta, rep.argmin_k) == (float(delta), k)


# Cofactor determinant and adjugate: the reference for _det_inverse, exact
# but exponential in d.

def _int_det(rows: list) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _int_det(minor)
    return total


def _adjugate(rows: list) -> list:
    n = len(rows)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
            adj[j][i] = (-1) ** (i + j) * _int_det(minor) if n > 1 else 1
    return adj


class TestAutomorphism:
    def test_identity_from_unit_vector(self):
        B = build_automorphism([1, 0])
        assert B.entries == ((1, 0), (0, 1))
        assert B.inverse == ((1, 0), (0, 1))

    def test_2_3_completion(self):
        B = build_automorphism([2, 3])
        rows = np.array(B.entries)
        assert tuple(rows[0]) == (2, 3)
        assert round(np.linalg.det(rows)) == 1
        assert np.max(np.abs(rows)) <= 3
        # sanity: a bounded-entry witness exists, so the search cannot fail
        assert 2 * 2 - 3 * 1 == 1

    def test_ones_completion_3d(self):
        B = build_automorphism([1, 1, 1])
        rows = np.array(B.entries)
        assert tuple(rows[0]) == (1, 1, 1)
        assert np.max(np.abs(rows)) <= 1
        ident = rows @ np.array(B.inverse)
        assert np.array_equal(ident, np.eye(3, dtype=np.int64))

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            build_automorphism([2, 4])
        with pytest.raises(NotCoprime):
            build_automorphism([0, 0])
        with pytest.raises(NotCoprime):
            build_automorphism([-1])

    def test_det_minus_one_rejected(self):
        with pytest.raises(NotUnimodular):
            Automorphism.from_entries([[0, 1], [1, 0]])

    def test_det_minus_one_and_singular_name_the_determinant(self):
        with pytest.raises(NotUnimodular, match="determinant is -1, need"):
            Automorphism.from_entries([[1, 2, 0], [0, 1, 0], [0, 0, -1]])
        with pytest.raises(NotUnimodular, match="determinant is 0, need"):
            Automorphism.from_entries([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        with pytest.raises(NotUnimodular, match="determinant is 0, need"):
            Automorphism.from_entries([[0, 0], [0, 0]])
        assert _det_inverse([[2, 4], [1, 2]]) == (0, None)

    def test_dense_12x12_in_polynomial_time(self):
        # cofactor expansion took 0.58 s at d = 8 and grows about x9 per d
        rng = np.random.default_rng(12)
        d = 12
        rows = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(200):
            i, j = rng.choice(d, 2, replace=False)
            c = int(rng.integers(-1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        assert all(v != 0 for r in rows for v in r)
        t0 = time.perf_counter()
        B = Automorphism.from_entries(rows)
        assert time.perf_counter() - t0 < 0.5
        prod = np.array(B.entries, dtype=object) @ np.array(B.inverse, dtype=object)
        assert (prod == np.eye(d, dtype=object)).all()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(lambda d: st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d),
        min_size=d, max_size=d)))
    def test_det_inverse_equals_cofactor_reference(self, rows):
        det, inv = _det_inverse(rows)
        assert det == _int_det(rows)
        if det == 0:
            assert inv is None
        else:
            adj = _adjugate(rows)
            assert inv == [[Fraction(a, det) for a in r] for r in adj]

    def test_unimodular_inverse_equals_adjugate(self):
        rng = np.random.default_rng(6)
        for d in range(1, 7):
            rows = [[int(i == j) for j in range(d)] for i in range(d)]
            for _ in range(4 * d):
                if d > 1:
                    i, j = rng.choice(d, 2, replace=False)
                    c = int(rng.integers(-2, 3))
                    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            B = Automorphism.from_entries(rows)
            assert _int_det(rows) == 1
            assert [list(r) for r in B.inverse] == _adjugate(rows)

    def test_frequency_maps(self):
        B = build_automorphism([2, 3])
        w = Frequency([0.1, 0.2])
        fwd = B.map_frequency(w)
        assert fwd.components == pytest.approx(
            ((2 * 0.1 + 3 * 0.2) % 1.0, (0.1 * np.array(B.entries)[1, 0]
                                         + 0.2 * np.array(B.entries)[1, 1]) % 1.0))
        back = B.inverse_map_frequency(B.map_frequency(Frequency([0.0, 0.0])))
        assert back.components == (0.0, 0.0)

    def test_frequency_maps_round_once(self):
        # (2, 3) . (0.3, 0.7) summed in doubles rounds twice and lands one
        # ulp below the double nearest the exact residue
        B = Automorphism.from_entries([[2, 3], [1, 2]])
        w = Frequency([0.3, 0.7])
        got = B.map_frequency(w).components[0]
        exact = (2 * Fraction(0.3) + 3 * Fraction(0.7)) % 1
        assert abs(Fraction(got) - exact) <= Fraction(math.ulp(got)) / 2
        assert got != (2 * 0.3 + 3 * 0.7) % 1.0
        B3 = Automorphism.from_entries([[2, 3, 1], [1, 2, 1], [0, 0, 1]])
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = Frequency(rng.random(3))
            for rows, mapped in ((B3.entries, B3.map_frequency(w)),
                                 (B3.inverse, B3.inverse_map_frequency(w))):
                for r, got in zip(rows, mapped.components):
                    exact = sum(b * Fraction(c) for b, c in zip(r, w.components)) % 1
                    assert 0.0 <= got < 1.0
                    assert abs(Fraction(got) - exact) <= Fraction(math.ulp(got)) / 2

    @settings(max_examples=200)
    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=4))
    def test_completion_properties(self, k):
        g = math.gcd(*(abs(v) for v in k))
        if g != 1:
            with pytest.raises(NotCoprime):
                build_automorphism(k)
            return
        B = build_automorphism(k)
        rows = np.array(B.entries, dtype=object)
        assert tuple(int(v) for v in rows[0]) == tuple(k)
        m = max(abs(v) for v in k)
        assert max(abs(int(v)) for v in rows.ravel()) <= m
        prod = np.array(B.entries, dtype=object) @ np.array(B.inverse, dtype=object)
        d = len(k)
        assert (prod == np.eye(d, dtype=object)).all()

    @settings(max_examples=50)
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_large_2d_completion(self, k1, k2):
        if math.gcd(abs(k1), abs(k2)) != 1:
            return
        B = build_automorphism([k1, k2])
        (a, b), (x, y) = B.entries
        assert (a, b) == (k1, k2)
        assert a * y - b * x == 1
        assert max(abs(x), abs(y)) <= max(abs(k1), abs(k2))


def test_torus_distance_symmetric_wraparound():
    a = Frequency([0.95, 0.1])
    b = Frequency([0.05, 0.1])
    assert torus_distance(a, b) == pytest.approx(0.1)
    assert torus_distance(a, a) == 0.0
