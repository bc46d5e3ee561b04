"""Per-layer metrics of one traced pass, computed from its spans.

Counts come from call arguments and return values; times from span
durations and self times (duration minus child spans). Two figures need
extra work after the pass and are computed here, outside every span:
cocycle.eval_s replays A.eval_many along the recorded orbits, and
torus.scan_rel_err_max compares each reported lattice-scan minimum against
exact rational arithmetic.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Dict, Iterable

import numpy as np

from tracer import Span, Tracer

KERNEL = ("cocycle.iterate_log_norm_many", "cocycle.iterate_log_norm")
SCAN = "torus.min_dot_norm"


def _arg(span: Span, pos: int, name: str):
    return span.args[pos] if len(span.args) > pos else span.kwargs[name]


def kernel_call(span: Span):
    """(cocycle, N, starting points as an (m, d) array) of a kernel span."""
    C = _arg(span, 0, "C")
    N = int(_arg(span, 1, "N"))
    X = _arg(span, 2, "X" if span.name == KERNEL[0] else "x")
    return C, N, np.asarray(X, dtype=float).reshape(-1, C.d)


def node_steps(span: Span) -> int:
    _, N, X = kernel_call(span)
    return X.shape[0] * N


def excised_nodes(span: Span) -> int:
    if span.name == KERNEL[0]:
        return int(np.count_nonzero(span.result[1]))
    return int(span.result.underflowed)


def lattice_points(d: int, K: int) -> int:
    """Nominal half-lattice size of a scan: ((2K+1)^d - 1) / 2."""
    return ((2 * K + 1) ** d - 1) // 2


def scan_rel_err(span: Span) -> float:
    """|reported delta - exact ||k.omega|| at the reported k| / exact.

    Each component of omega is the exact dyadic rational its double holds.
    """
    rep = span.result
    omega = _arg(span, 0, "omega")
    dot = sum(k * Fraction(w) for k, w in zip(rep.argmin_k, omega.components))
    exact = abs(dot - round(dot))
    err = abs(Fraction(rep.delta) - exact)
    if exact == 0:
        return 0.0 if err == 0 else math.inf
    return float(err / exact)


def replay_eval_s(spans: Iterable[Span]) -> float:
    """Time A.eval_many alone along every recorded kernel orbit."""
    total = 0.0
    for s in spans:
        C, N, X = kernel_call(s)
        w = C.omega.as_array()
        pts = X.copy()
        for _ in range(N):
            t0 = time.perf_counter()
            C.A.eval_many(pts)
            total += time.perf_counter() - t0
            pts = pts + w
            pts -= np.floor(pts)
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def pass_metrics(tracer: Tracer) -> Dict[str, float]:
    """Layer metrics of one traced pass (spans of returned calls only count
    toward work; every span counts toward time)."""
    self_t = tracer.layer_self_times()
    ok = [s for s in tracer.spans if not s.raised]

    kernel = [s for s in tracer.spans if s.name in KERNEL]
    kernel_ok = [s for s in kernel if not s.raised]
    kernel_s = sum(s.duration for s in kernel)
    steps = sum(node_steps(s) for s in kernel_ok)
    nodes = sum(kernel_call(s)[2].shape[0] for s in kernel_ok)
    excised = sum(excised_nodes(s) for s in kernel_ok)

    ap = [s for s in tracer.spans if s.name == "avalanche.ap_ensemble"]
    matrices = sum(r.n for s in ap if not s.raised for r in s.result.reports)
    ap_s = sum(s.duration for s in ap)

    scans = tracer.named(SCAN)
    scan_ok = [s for s in scans if not s.raised]
    d_of = lambda s: _arg(s, 0, "omega").d
    points = sum(lattice_points(d_of(s), int(_arg(s, 1, "K"))) for s in scan_ok)
    errs = [scan_rel_err(s) for s in scan_ok]

    return {
        "cocycle.kernel_s": kernel_s,
        "cocycle.node_steps": steps,
        "cocycle.node_steps_per_s": _ratio(steps, kernel_s),
        "cocycle.eval_s": replay_eval_s(kernel_ok),
        "cocycle.excised_frac": _ratio(excised, nodes),
        "lyapunov.self_s": self_t["lyapunov"],
        "lyapunov.calls": len([s for s in ok if s.name == "lyapunov.L_prime_N"]),
        "deviation.self_s": self_t["deviation"],
        "avalanche.self_s": self_t["avalanche"],
        "avalanche.matrices": matrices,
        "avalanche.matrices_per_s": _ratio(matrices, ap_s),
        "torus.scan_s.d1": sum(s.duration for s in scans if d_of(s) == 1),
        "torus.scan_s.d2plus": sum(s.duration for s in scans if d_of(s) >= 2),
        "torus.lattice_points": points,
        "torus.lattice_points_per_s": _ratio(
            points, sum(s.duration for s in scan_ok)),
        "torus.scan_rel_err_max": max(errs, default=0.0),
        "multiscale.self_s": self_t["multiscale"],
        "cli.load_config_s": self_t["cli.load_config"],
        "cli.serialize_s": self_t["cli.serialize"],
        "cli.self_s": self_t["cli"],
        "bench.self_s": self_t["bench"],
    }

