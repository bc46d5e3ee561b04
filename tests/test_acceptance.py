"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each criterion is one test, so the verbose runner shows one pass/fail line
per criterion; each also prints an ACCEPTANCE summary line with its runtime
against the allowed budget.
"""

import math
import time

import numpy as np

from cocyclelab._util import set_max_workers, to_json_text
from cocyclelab.avalanche import ap_check, ap_ensemble
from cocyclelab.cocycle import (
    Cocycle,
    DiscontinuityExample,
    TrigPoly,
    TrigPolyMatrix,
    amo,
    jacobi,
    schrodinger,
)
from cocyclelab.deviation import (
    cdt_empirical_many,
    fourier_coeffs,
    l2_uniform_check,
    ldt_empirical,
    lojasiewicz_fit,
    profile,
)
from cocyclelab.lyapunov import (
    L_N_renormalized,
    L_prime_N,
    QuadratureSpec,
    det_log_integral,
)
from cocyclelab.multiscale import (
    cov_invariance_check,
    induction_schedule,
    ladder_verify,
    liouville_ladder,
)
from cocyclelab.torus import Automorphism, Frequency

GOLDEN = 0.6180339887
GRID = lambda m: QuadratureSpec(kind="uniform-grid", points_per_dim=m)


def _verdict(num: int, ok: bool, desc: str, elapsed: float,
             budget: float, detail: str = "") -> None:
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {desc} "
          f"[{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"criterion {num} failed: {detail or desc}"
    assert in_time, (f"criterion {num} exceeded its runtime budget: "
                     f"{elapsed:.2f}s >= {budget}s")


def test_criterion_1_resonant_discontinuity_value():
    t0 = time.perf_counter()
    C = Cocycle(DiscontinuityExample((1,)), Frequency((0.0,)))
    ref = (2.0 / math.pi) * math.exp(-2.0 * math.pi)
    vals = {N: L_prime_N(C, N, GRID(4096)).value for N in (1, 10, 100)}
    errs = {N: abs(v - ref) for N, v in vals.items()}
    ok = all(e <= 1e-6 for e in errs.values())
    _verdict(1, ok, "resonant side is N-independent at (2/pi) e^{-2 pi}",
             time.perf_counter() - t0, 1.0,
             detail=f"errors vs closed form: {errs}")


def test_criterion_2_nonresonant_discontinuity_decays():
    t0 = time.perf_counter()
    C = Cocycle(DiscontinuityExample((1,)), Frequency((GOLDEN,)))
    v100 = L_prime_N(C, 100, GRID(4096)).value
    v1000 = L_prime_N(C, 1000, GRID(4096)).value
    ok = v100 <= 1e-2 and v1000 <= 1e-2 and v1000 < v100
    _verdict(2, ok, "non-resonant side decays toward zero",
             time.perf_counter() - t0, 10.0,
             detail=f"L'_100={v100}, L'_1000={v1000}")


def test_criterion_3_renormalization_identity():
    t0 = time.perf_counter()
    E = 0.5

    def identity_at(om: Frequency, M: int) -> tuple:
        A = jacobi(0.0, TrigPoly.cosine((1,)), E, om)
        lp = L_prime_N(Cocycle(A, om), 100, GRID(M))
        ln = L_N_renormalized(Cocycle(A, om), 100, GRID(M))
        half = 0.5 * det_log_integral(A, GRID(M)).value
        return ln.value - lp.value + half, lp.stderr + ln.stderr

    # q = 4 divides 4096, so the midpoint grid is shift-closed and the
    # identity holds to rounding
    i_rat, _ = identity_at(Frequency((0.25,)), 4096)
    ok_rat = abs(i_rat) <= 1e-8

    i_hi, se = identity_at(Frequency((GOLDEN,)), 4096)
    i_lo, _ = identity_at(Frequency((GOLDEN,)), 2048)
    tol = 5.0 * (abs(i_hi - i_lo) + se)
    ok_gold = abs(i_hi) <= tol

    A = jacobi(0.0, TrigPoly.cosine((1,)), E, Frequency((GOLDEN,)))
    det_val = det_log_integral(A, GRID(2 ** 14)).value
    ok_det = abs(det_val - (-2.0 * math.log(2.0))) <= 1e-3

    ok = ok_rat and ok_gold and ok_det
    _verdict(3, ok, "L_N - L'_N + (1/2) int ln|det| vanishes",
             time.perf_counter() - t0, 30.0,
             detail=(f"rational={i_rat} (<=1e-8: {ok_rat}), "
                     f"golden={i_hi} vs tol {tol} ({ok_gold}), "
                     f"det integral={det_val} vs -2 ln 2 ({ok_det})"))


def test_criterion_4_change_of_variables_invariance():
    t0 = time.perf_counter()
    om = Frequency((GOLDEN, 2 ** 0.5 - 1))
    B = Automorphism.from_entries([[2, 3], [1, 2]])
    v = TrigPoly.cosine((1, 0)) + TrigPoly.cosine((0, 1))
    cs = Cocycle(schrodinger(v, 0.5, rho=0.5, d=2), om)
    cj = Cocycle(jacobi(TrigPoly.cosine((0, 1)), TrigPoly.cosine((1, 0)),
                        0.5, om, rho=0.5), om)
    d_s = cov_invariance_check(cs, B, N=50, M=64)
    d_j = cov_invariance_check(cj, B, N=50, M=64)
    ok = d_s <= 1e-10 and d_j <= 1e-10
    _verdict(4, ok, "automorphism leaves L'_N unchanged on matched grids",
             time.perf_counter() - t0, 30.0,
             detail=f"schrodinger diff={d_s}, jacobi diff={d_j}")


def test_criterion_5_avalanche_principle():
    t0 = time.perf_counter()
    mu = 1000.0
    same = np.array([[[mu, 0.0], [0.0, 1.0 / mu]]] * 50, dtype=complex)
    r0 = ap_check(same)
    ok_exact = r0.residual == 0.0

    interior = ap_ensemble(1000, seed=0, mu=1e3, n_max=100, variant=False)
    variant = ap_ensemble(1000, seed=0, mu=1e3, n_max=100, variant=True)
    hyps = all(r.hypotheses_ok for r in interior.reports + variant.reports)
    ok = ok_exact and hyps and interior.all_within and variant.all_within
    _verdict(5, ok, "identical chain residual exactly 0; 1000 random chains "
                    "within both bounds",
             time.perf_counter() - t0, 10.0,
             detail=(f"identical residual={r0.residual}, hypotheses={hyps}, "
                     f"interior worst={interior.worst_ratio}, "
                     f"variant worst={variant.worst_ratio}"))


def test_criterion_6_coupling_floor():
    t0 = time.perf_counter()
    om = Frequency((GOLDEN,))
    floor = math.log(3.0) - 0.05
    details = {}
    ok = True
    for E in (-2.0, 0.0, 2.0):
        C = Cocycle(amo(3.0, E), om)
        v800 = L_prime_N(C, 800, GRID(4096)).value
        v3200 = L_prime_N(C, 3200, GRID(4096)).value
        details[E] = (v800, v3200)
        ok = ok and v800 >= floor and abs(v800 - v3200) <= 0.02
    _verdict(6, ok, "AMO at coupling 3 stays above ln 3 - 0.05",
             time.perf_counter() - t0, 60.0, detail=str(details))


def test_criterion_7_deviation_suite():
    t0 = time.perf_counter()
    om = Frequency((GOLDEN,))
    ca = Cocycle(amo(3.0, 0.0), om)

    prof = profile(ca, 1000, 1024)
    sweep = (0.005, 0.002, 0.001, 0.0005, 0.0002)
    fr = [ldt_empirical(prof, k).measured_fraction for k in sweep]
    ok_ldt = all(a <= b for a, b in zip(fr, fr[1:]))

    shifts = [5e-4 / 2 ** j for j in range(4)]
    cf = [e.measured_fraction
          for e in cdt_empirical_many(ca, 500, [[a] for a in shifts], 0.005,
                                      4096)]
    ratios = [b / a for a, b in zip(cf, cf[1:])]
    ok_cdt = all(0.25 <= r <= 0.75 for r in ratios)

    t_grid = (0.2, 0.1, 0.05, 0.02, 0.01)
    fit_sin = lojasiewicz_fit(TrigPoly.sine((1,)), t_grid, 2 ** 14)
    sin2 = TrigPoly.sine((1,)) * TrigPoly.sine((1,))
    fit_sq = lojasiewicz_fit(sin2, t_grid, 2 ** 14)
    ok_loja = 0.9 <= fit_sin.b <= 1.1 and 0.4 <= fit_sq.b <= 0.6

    cj = Cocycle(jacobi(0.0, TrigPoly.cosine((1,)), 0.5, om), om)
    rep = l2_uniform_check(cj, (10, 100, 1000), 1024)
    ok_l2 = rep.ratio <= 2.0

    ok = ok_ldt and ok_cdt and ok_loja and ok_l2
    _verdict(7, ok, "deviation statistics: ldt monotone, cdt halving, "
                    "sublevel power laws, uniform L2",
             time.perf_counter() - t0, 120.0,
             detail=(f"ldt fractions={fr}, cdt ratios={ratios}, "
                     f"b_sin={fit_sin.b}, b_sin2={fit_sq.b}, "
                     f"l2 ratio={rep.ratio}"))


def test_criterion_8_fourier_decay():
    t0 = time.perf_counter()
    om = Frequency((GOLDEN,))
    ca = Cocycle(amo(3.0, 0.0), om)
    p1 = profile(ca, 64, 4096)
    r1 = fourier_coeffs(p1, 32)
    ok_clip = r1.clipped_count == 0
    ok_mean = abs(r1.k0_coeff - p1.mean) <= 1e-12
    ok_pars = abs(r1.parseval_lhs - r1.parseval_rhs) <= 1e-10
    p2 = profile(ca, 64, 8192)
    r2 = fourier_coeffs(p2, 32)
    rel = abs(r2.max_k_weighted - r1.max_k_weighted) / r1.max_k_weighted
    ok = ok_clip and ok_mean and ok_pars and rel < 0.25
    _verdict(8, ok, "profile spectrum: mean, Parseval, stable k-weighted max",
             time.perf_counter() - t0, 10.0,
             detail=(f"clipped={r1.clipped_count}, "
                     f"mean err={abs(r1.k0_coeff - p1.mean)}, "
                     f"parseval err={abs(r1.parseval_lhs - r1.parseval_rhs)}, "
                     f"grid-doubling change={rel}"))


def test_criterion_9_ladder_replay_determinism():
    t0 = time.perf_counter()
    half = Frequency((0.5,))

    def liouville_json() -> str:
        return to_json_text(liouville_ladder(16, 2, half, rho=1.0,
                                             kappa=0.5, C=2.0,
                                             max_scale=128))

    def induction_json() -> str:
        return to_json_text(induction_schedule(
            None, Frequency((GOLDEN,)), q0=1, K0=2, delta0=0.2, eps0=0.0,
            N0=16, rho=0.95, c=0.1))

    texts = {}
    for workers in (1, 4):
        set_max_workers(workers)
        try:
            texts[workers] = (liouville_json(), liouville_json(),
                              induction_json(), induction_json())
        finally:
            set_max_workers(1)
    ok_replay = (len(set(texts[1][:2] + texts[4][:2])) == 1
                 and len(set(texts[1][2:] + texts[4][2:])) == 1)

    z = TrigPoly.constant(1, 0.0)
    A = TrigPolyMatrix(TrigPoly.constant(1, 2.0), z, z,
                       TrigPoly.constant(1, 0.5), rho=1.0)
    lad = liouville_ladder(16, 2, half, rho=1.0, kappa=0.5, C=2.0,
                           max_scale=128)
    v = ladder_verify(Cocycle(A, half), lad, quad=GRID(64))
    ok_zero = v.all_passed and all(p[2] == 0.0 for p in v.pairs)

    ok = ok_replay and ok_zero
    _verdict(9, ok, "ladder JSON replays byte-identically; constant-cocycle "
                    "differences are exactly zero",
             time.perf_counter() - t0, 5.0,
             detail=f"replay={ok_replay}, diffs={[p[2] for p in v.pairs]}")
