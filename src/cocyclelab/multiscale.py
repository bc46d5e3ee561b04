"""Scale ladders: hypothesis gates, schedule generation, and verification.

The generators here turn frequency arithmetic into concrete lists of scales
N_0 < N_1 < ... at which finite-scale exponents are expected to agree within
a computable budget. Generation is pure integer/rational arithmetic (exact,
thread-independent, replayable bit-for-bit); ladder_verify is the empirical
pass that measures the agreement on an actual cocycle.

Step flags are keyed by opaque condition identifiers (strings of the form
"eq:..."); downstream tooling matches on them exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from ._util import dyadic_grid
# iterate_log_norm_many, L_prime_N, L_N_renormalized: not called here;
# perfbench/tracer.py wraps these bindings by name
from .cocycle import Cocycle, ComposedMatrix, iterate_log_norm_many
from .errors import (GateFailed, InconsistentDelta, PreconditionFailed,
                     ScanTooLarge)
from .lyapunov import (L_N_renormalized, L_prime_N, QuadratureSpec, kept_mean,
                       le_table, sample_log_norms)
from .torus import Automorphism, Frequency, build_automorphism, freq_norm, min_dot_norm

DEFAULT_C = 10.0
DEFAULT_c = 0.1


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateReport:
    """Hypothesis booleans plus the largest admissible scale they allow."""

    flags: Dict[str, bool]
    max_scale: float            # math.inf when a resonance removes the cap
    params: Dict[str, float]

    @property
    def passed(self) -> bool:
        return all(self.flags.values())

    def failed_flags(self) -> Tuple[str, ...]:
        return tuple(k for k, v in self.flags.items() if not v)


@dataclass(frozen=True)
class ScaleLadder:
    """Increasing scales with the parameters and per-step records behind them.

    params always carries the seven keys (kappa, q0, K0, delta0, rho, C, c);
    entries that do not apply to the generating scheme are None. step_flags is
    a list of dicts; the first entry records the base gate, later entries one
    generation round each.
    """

    kind: str                   # "liouville" | "induction"
    scales: Tuple[int, ...]
    params: Dict[str, Optional[float]]
    step_flags: Tuple[dict, ...]
    halt: Optional[str] = None

    def __post_init__(self):
        if len(self.scales) == 0:
            raise ValueError("a ladder needs at least one scale")
        for a, b in zip(self.scales, self.scales[1:]):
            if b <= a or b % a != 0:
                raise ValueError(f"scales must increase through multiples: {a} -> {b}")
            r = b // a
            if r & (r - 1):
                raise ValueError(f"scale ratio {r} is not a power of two")


class ScalePair(NamedTuple):
    """One compared pair of ladder scales: |L_{N_i} - L_{N_j}| and its budget."""

    N_i: int
    N_j: int
    difference: float
    budget: float


@dataclass(frozen=True)
class LadderVerification:
    """Measured |L_{N_i} - L_{N_j}| against the ladder's budgets."""

    pairs: Tuple[ScalePair, ...]
    passed: Tuple[bool, ...]
    all_passed: bool
    estimates: Dict[int, float]


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def _validate_base(N0: int, q0: int, rho: float, kappa: float, C: float) -> None:
    if q0 < 1:
        raise ValueError("q0 must be >= 1")
    if N0 < 1:
        raise ValueError("N0 must be >= 1")
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    if not 0.0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    if C <= 0.0:
        raise ValueError("C must be positive")


def liouville_gate(N0: int, q0: int, omega: Frequency, rho: float,
                   kappa: float, C: float = DEFAULT_C) -> GateReport:
    """Evaluate the small-denominator hypotheses at base scale N0.

    Returns booleans for the two entry conditions plus the largest admissible
    comparison scale; an exact resonance (freq_norm(omega, q0) == 0) makes
    that scale infinite.
    """
    _validate_base(N0, q0, rho, kappa, C)
    fn = freq_norm(omega, q0)
    flags = {
        "eq:LiouvCondition": fn < kappa**C * rho**4 * q0 / N0,
        "eq:N0LargeCondition": N0 * kappa**C > q0,
    }
    if fn == 0.0:
        max_scale = math.inf
    else:
        max_scale = kappa**(C / 2.0) * rho**2 * math.sqrt(N0 * q0 / fn)
    params = {"N0": N0, "q0": q0, "rho": rho, "kappa": kappa, "C": C,
              "freq_norm": fn}
    return GateReport(flags=flags, max_scale=max_scale, params=params)


def mixed_gate(N0: int, q0: int, K0: int,
               omega1: Optional[Frequency], omega2: Optional[Frequency],
               rho: float, kappa: float, delta: float,
               C: float = DEFAULT_C, c: Optional[float] = None) -> GateReport:
    """Gate for a split frequency: near-resonant block omega1, Diophantine
    block omega2 with lower bound delta out to lattice height K0.

    delta must not exceed the scanned minimum of dist_to_Z(k . omega2) over
    0 < |k| <= K0 (InconsistentDelta otherwise). An empty omega2 makes the
    scan vacuous and the report degenerates to the single-block semantics.
    """
    _validate_base(N0, q0, rho, kappa, C)
    if K0 < 1:
        raise ValueError("K0 must be >= 1")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    c = 1.0 / C if c is None else float(c)
    fn1 = 0.0 if omega1 is None else freq_norm(omega1, q0)
    scan_delta = math.inf if omega2 is None else min_dot_norm(omega2, K0).delta
    if delta > scan_delta:
        raise InconsistentDelta(
            f"delta={delta} exceeds the scanned minimum {scan_delta} at K0={K0}")
    flags = {
        "eq:Mixed:hyp1": fn1 < kappa**C * rho**3 * q0 / N0,
        "eq:Mixed:hyp2": K0 > (rho**(1.0 + c) * kappa)**(-C) * q0,
        "eq:Mixed:hyp3": N0 > kappa**(-C) * K0 / delta,
    }
    cap_resonant = math.inf if fn1 == 0.0 else kappa**C * rho**3 * q0 / fn1
    growth = (K0 / q0)**c
    cap_growth = math.inf if growth > 700.0 else N0 * math.exp(growth)
    params = {"N0": N0, "q0": q0, "K0": K0, "rho": rho, "kappa": kappa,
              "delta": delta, "C": C, "c": c, "freq_norm_1": fn1,
              "scan_delta": scan_delta}
    return GateReport(flags=flags, max_scale=min(cap_resonant, cap_growth),
                      params=params)


# ---------------------------------------------------------------------------
# Ladder generators
# ---------------------------------------------------------------------------

def _largest_pow2_multiple(base: int, bound) -> int:
    """Largest base * 2^j (j >= 0) that is <= bound; bound may be a Fraction."""
    m = int(bound / base) if isinstance(bound, Fraction) else int(bound // base)
    if m < 1:
        raise ValueError("bound is below the base scale")
    return base << (m.bit_length() - 1)


def liouville_ladder(N0: int, q0: int, omega: Frequency, rho: float,
                     kappa: float, C: float = DEFAULT_C,
                     max_scale: Optional[int] = None) -> ScaleLadder:
    """Maximal doubling ladder from N0 under the two-thirds-power recursion.

    Each new scale is the largest 2^j multiple of the previous one at or
    below N_prev^(2/3) * (q0 rho^4 / freq_norm)^(1/3), and strictly below the
    overall cap kappa^C rho^4 q0 / freq_norm. On exact resonance the cap is
    infinite and the caller must supply max_scale; the ladder then has one
    step up to the largest 2^j N0 <= max_scale.
    """
    gate = liouville_gate(N0, q0, omega, rho, kappa, C)
    if not gate.passed:
        raise GateFailed(f"gate flags false: {', '.join(gate.failed_flags())}")
    fn = gate.params["freq_norm"]
    params = {"kappa": kappa, "q0": q0, "K0": None, "delta0": None,
              "rho": rho, "C": C, "c": None}
    steps: List[dict] = [{"scale": N0, **gate.flags}]

    if fn == 0.0:
        if max_scale is None:
            raise PreconditionFailed(
                "freq_norm(omega, q0) == 0: the cap is unbounded, supply max_scale")
        if max_scale < N0:
            raise ValueError("max_scale must be >= N0")
        top = _largest_pow2_multiple(N0, max_scale)
        scales = [N0] if top == N0 else [N0, top]
        if top != N0:
            steps.append({"scale": top, "recursion_bound": math.inf,
                          "cap": math.inf, "truncated_by": "max_scale"})
        return ScaleLadder(kind="liouville", scales=tuple(scales),
                           params=params, step_flags=tuple(steps))

    cap = kappa**C * rho**4 * q0 / fn
    growth = (q0 * rho**4 / fn) ** (1.0 / 3.0)
    scales = [N0]
    while True:
        prev = scales[-1]
        rhs = prev ** (2.0 / 3.0) * growth
        j = 0
        while (prev << (j + 1)) <= rhs and (prev << (j + 1)) < cap:
            j += 1
        if j == 0:
            break
        nxt = prev << j
        blocked = "recursion" if (prev << (j + 1)) > rhs else "cap"
        scales.append(nxt)
        steps.append({"scale": nxt, "recursion_bound": rhs, "cap": cap,
                      "truncated_by": blocked})
    return ScaleLadder(kind="liouville", scales=tuple(scales), params=params,
                       step_flags=tuple(steps))


def induction_schedule(omega1: Optional[Frequency], omega2: Optional[Frequency],
                       q0: int, K0: int, delta0: float, eps0: float,
                       N0: int, rho: float, c: float = DEFAULT_c) -> ScaleLadder:
    """Trace the alternating schedule: K_s = K_{s-1}^20, delta_s by exact
    lattice scan, N_{0,s} the largest doubling multiple below K_s^2/delta_s
    + N_{0,s-1}, with an automorphism reduction whenever the scan finds an
    exact resonance in the omega2 block.

    The trace is a plan, not a proof. It halts with a named cause when the
    admissible-scale boundary is crossed, when the omega2 block is exhausted,
    or when the next scan exceeds the scan guard. Budgets K_s^(-c) are
    recorded per round; their sum is dominated by a geometric series.
    """
    if q0 < 1 or K0 < 1 or N0 < 1:
        raise ValueError("q0, K0, N0 must be >= 1")
    if not 0.0 < delta0 <= 1.0:
        raise ValueError("delta0 must lie in (0, 1]")
    if eps0 < 0.0:
        raise ValueError("eps0 must be >= 0")
    if c <= 0.0 or rho <= 0.0:
        raise ValueError("rho and c must be positive")
    if not q0 < K0 ** 0.1:
        raise PreconditionFailed(f"q0 < K0^(1/10) violated: q0={q0}, "
                                 f"K0^(1/10)={K0 ** 0.1:.6g}")
    fn1 = 0.0 if omega1 is None else freq_norm(omega1, q0)
    if fn1 > eps0:
        raise PreconditionFailed(
            f"||q0 omega1|| <= eps0 violated: {fn1} > {eps0}")
    if omega2 is not None:
        scan0 = min_dot_norm(omega2, K0).delta
        if delta0 > scan0:
            raise PreconditionFailed(
                f"||k . omega2|| >= delta0 for 0 < |k| <= K0 violated: "
                f"scan minimum {scan0} < delta0={delta0}")
    lo = Fraction(K0 * K0, 2) / Fraction(delta0)
    hi = math.inf if eps0 == 0.0 else Fraction(1) / (Fraction(eps0) * K0)
    if N0 < lo or (hi is not math.inf and N0 >= hi):
        raise PreconditionFailed(
            f"(1/2) K0^2/delta0 <= N0 < eps0^(-1) K0^(-1) violated: N0={N0}, "
            f"lower={float(lo):.6g}, upper={'inf' if hi is math.inf else float(hi)}")
    if not rho > K0 ** (-c):
        raise PreconditionFailed(f"rho > K0^(-c) violated: rho={rho}, "
                                 f"K0^(-c)={K0 ** (-c):.6g}")

    params = {"kappa": K0 ** (-c), "q0": q0, "K0": K0, "delta0": delta0,
              "rho": rho, "C": 1.0 / c, "c": c}
    scales: List[int] = [N0]
    steps: List[dict] = [{"scale": N0, "eps0": eps0, "q": q0, "rho": rho}]
    K, N, q, eps, rho_cur = K0, N0, q0, eps0, rho
    om1, om2 = omega1, omega2
    d_total = (0 if omega1 is None else omega1.d) + (0 if omega2 is None else omega2.d)
    halt = None

    while True:
        if om2 is None:
            steps.append({"kind": "halt", "cause": "d2 exhausted", "K": K})
            halt = "d2-exhausted"
            break
        K_next = K ** 20
        try:
            rep = min_dot_norm(om2, K_next)
        except ScanTooLarge as e:
            steps.append({"kind": "halt", "cause": "ScanTooLarge", "K": K_next,
                          "detail": str(e)})
            halt = "ScanTooLarge"
            break
        budget = float(K) ** (-c)
        if rep.delta == 0.0:
            # exact resonance in the omega2 block: reduce d2 by an integer
            # change of variables and fold the resonant direction into omega1
            kvec = rep.argmin_k
            g = math.gcd(*(abs(v) for v in kvec)) if len(kvec) > 1 else abs(kvec[0])
            n1 = tuple(v // g for v in kvec)
            B = build_automorphism(n1)
            mapped = B.map_frequency(om2)
            new_coord = mapped.components[0]
            rest = mapped.components[1:]
            om1 = Frequency((om1.components if om1 is not None else ()) + (new_coord,))
            om2 = Frequency(rest) if rest else None
            eps = g * eps + q * rep.delta  # rep.delta == 0 here
            q = q * g
            rho_cur = rho_cur * float(K_next) ** (1 - d_total)
            steps.append({"kind": "automorphism", "K": K_next,
                          "k": list(kvec), "gcd": g, "n1": list(n1),
                          "B": [list(r) for r in B.entries],
                          "B_inverse": [list(r) for r in B.inverse],
                          "new_coordinate": new_coord, "q": q, "eps": eps,
                          "rho": rho_cur, "budget": budget})
            K = K_next
            continue
        # admissible-scale boundary: past it there is nothing left to extend
        lhs = Fraction(K ** 40) / Fraction(rep.delta) + N
        rhs = math.inf if eps == 0.0 else Fraction(1) / (Fraction(eps) * K)
        if rhs is not math.inf and lhs > rhs:
            steps.append({"kind": "halt", "cause": "eq:RestrN1Cond", "K": K,
                          "lhs": float(lhs), "rhs": float(rhs)})
            halt = "eq:RestrN1Cond"
            break
        bound = Fraction(K_next * K_next) / Fraction(rep.delta) + N
        nxt = _largest_pow2_multiple(N, bound)
        if nxt > N:
            scales.append(nxt)
            steps.append({"kind": "scale", "scale": nxt, "K": K_next,
                          "delta": rep.delta, "budget": budget,
                          "eq:RestrN1Cond": True})
        else:
            steps.append({"kind": "stall", "K": K_next, "delta": rep.delta,
                          "budget": budget})
        K, N = K_next, nxt

    return ScaleLadder(kind="induction", scales=tuple(scales), params=params,
                       step_flags=tuple(steps), halt=halt)


# ---------------------------------------------------------------------------
# Empirical verification
# ---------------------------------------------------------------------------

def _pair_budgets(ladder: ScaleLadder, C_prime: float) -> Tuple[List[float], float]:
    """Per-consecutive-pair budgets plus the base-to-top budget."""
    if ladder.kind == "liouville":
        unit = C_prime * float(ladder.params["kappa"]) ** (1.0 / 6.0)
        return [unit] * (len(ladder.scales) - 1), unit
    if ladder.kind == "induction":
        by_scale = {s.get("scale"): s["budget"] for s in ladder.step_flags
                    if s.get("kind") == "scale"}
        out = []
        for n in ladder.scales[1:]:
            if n not in by_scale:
                raise ValueError(f"no step record for scale {n}")
            out.append(C_prime * by_scale[n])
        return out, C_prime * float(ladder.params["kappa"])
    raise ValueError(f"unknown ladder kind {ladder.kind!r}")


def ladder_verify(C: Cocycle, ladder: ScaleLadder,
                  quad: Optional[QuadratureSpec] = None,
                  C_prime: float = 10.0,
                  renormalized: bool = False) -> LadderVerification:
    """Measure L at every ladder scale and compare against the budgets.

    Consecutive pairs are checked, plus base-to-top when the ladder has more
    than two scales. renormalized=True uses the unit-determinant exponent
    instead of the raw log-norm average.
    """
    if len(ladder.scales) < 2:
        raise ValueError("ladder has a single scale; nothing to verify")
    table = le_table(C, [int(n) for n in ladder.scales], quad,
                     renormalized=renormalized)
    estimates = {e.N: e.value for e in table}

    budgets, base_budget = _pair_budgets(ladder, C_prime)
    scales = ladder.scales
    compared = list(zip(zip(scales, scales[1:]), budgets))
    if len(scales) > 2:
        compared.append(((scales[0], scales[-1]), base_budget))
    pairs = tuple(ScalePair(int(a), int(b), abs(estimates[a] - estimates[b]), w)
                  for (a, b), w in compared)
    passed = tuple(p.difference < p.budget for p in pairs)
    return LadderVerification(pairs=pairs, passed=passed,
                              all_passed=all(passed), estimates=estimates)


def cov_invariance_check(C: Cocycle, B: Automorphism, N: int, M: int) -> float:
    """|L'_N(A, omega) - L'_N(A o B, B^(-1) omega)| on the shared integer grid.

    B maps the grid i/M bijectively to itself, so both averages run over the
    same value multiset; the difference is summation-order noise only. With
    B = identity the two evaluations are bitwise identical and the result is
    exactly 0.0.
    """
    if B.d != C.d:
        raise ValueError(f"B is {B.d}x{B.d} but omega lives in T^{C.d}")
    X = dyadic_grid(C.d, M)
    (a1,) = sample_log_norms(C, [N], X)
    comp = Cocycle(ComposedMatrix(C.A, B), B.inverse_map_frequency(C.omega))
    (a2,) = sample_log_norms(comp, [N], X)
    return abs(kept_mean(a1[a1 != -math.inf]) - kept_mean(a2[a2 != -math.inf]))
