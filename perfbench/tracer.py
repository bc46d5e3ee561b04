"""Spans around calls into cocyclelab's layers, recorded from outside.

Each public function is wrapped where the calling module binds it (for
example ``cli.L_prime_N`` or ``multiscale.min_dot_norm``), so a call made
through that module's globals opens a span. Spans keep their arguments and
result; counts are derived from them after the pass, so the wrappers only
read the clock and append. The program itself is never modified on disk, and
``instrument`` restores every binding on exit.
"""
from __future__ import annotations

import contextlib
import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# calling module -> (bound name, span name). The span name's prefix is the
# layer that defines the function; serializers form the cli.serialize layer.
WRAPS = {
    "cli": [
        ("load_config", "cli.load_config"),
        ("L_prime_N", "lyapunov.L_prime_N"),
        ("L_N_renormalized", "lyapunov.L_N_renormalized"),
        ("ap_ensemble", "avalanche.ap_ensemble"),
        ("profile", "deviation.profile"),
        ("fourier_coeffs", "deviation.fourier_coeffs"),
        ("ldt_empirical", "deviation.ldt_empirical"),
        ("mixed_gate", "multiscale.mixed_gate"),
        ("liouville_ladder", "multiscale.liouville_ladder"),
        ("induction_schedule", "multiscale.induction_schedule"),
        ("ladder_verify", "multiscale.ladder_verify"),
        ("to_json_text", "cli.serialize.to_json_text"),
        ("le_table_to_csv", "cli.serialize.le_table_to_csv"),
        ("ensemble_to_csv", "cli.serialize.ensemble_to_csv"),
        ("coeffs_to_csv", "cli.serialize.coeffs_to_csv"),
        ("plot_csv_text", "cli.serialize.plot_csv_text"),
    ],
    "lyapunov": [
        ("L_prime_N", "lyapunov.L_prime_N"),
        ("iterate_log_norm_many", "cocycle.iterate_log_norm_many"),
    ],
    "deviation": [
        ("iterate_log_norm_many", "cocycle.iterate_log_norm_many"),
    ],
    "multiscale": [
        ("L_prime_N", "lyapunov.L_prime_N"),
        ("L_N_renormalized", "lyapunov.L_N_renormalized"),
        ("iterate_log_norm_many", "cocycle.iterate_log_norm_many"),
        ("min_dot_norm", "torus.min_dot_norm"),
        ("freq_norm", "torus.freq_norm"),
    ],
    "avalanche": [
        ("iterate_log_norm_many", "cocycle.iterate_log_norm_many"),
        ("iterate_log_norm", "cocycle.iterate_log_norm"),
    ],
}

LAYERS = ("bench", "cli", "cli.load_config", "cli.serialize", "lyapunov",
          "cocycle", "deviation", "avalanche", "torus", "multiscale")


def layer_of(span_name: str) -> str:
    """Layer of a span: the longest entry of LAYERS its name extends."""
    best = ""
    for layer in LAYERS:
        if (span_name == layer or span_name.startswith(layer + ".")) \
                and len(layer) > len(best):
            best = layer
    if not best:
        raise ValueError(f"span {span_name!r} belongs to no layer")
    return best


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = float("nan")
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None
    raised: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, args: tuple = (), kwargs: Optional[dict] = None):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, parent, self.clock(), args=args, kwargs=kwargs or {})
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        except BaseException:
            s.raised = True
            raise
        finally:
            s.end = self.clock()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name, args, kwargs) as s:
                s.result = fn(*args, **kwargs)
                return s.result
        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> List[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def layer_self_times(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for s, t in zip(self.spans, self.self_times()):
            totals[layer_of(s.name)] += t
        return totals

    def nesting_problems(self) -> List[str]:
        """Spans that do not nest as calls on one thread do.

        Every span must lie inside its parent and start after its previous
        sibling ended; then no self time is negative. Spans opened on a
        worker thread break this, because they overlap their siblings.
        """
        probs = []
        last_end: Dict[Optional[int], float] = {}
        for i, s in enumerate(self.spans):
            if not s.start <= s.end:
                probs.append(f"span {i} {s.name} ends before it starts")
            if s.parent is not None:
                p = self.spans[s.parent]
                if not (p.start <= s.start and s.end <= p.end):
                    probs.append(f"span {i} {s.name} leaves its parent {p.name}")
            if s.start < last_end.get(s.parent, -math.inf):
                probs.append(f"span {i} {s.name} overlaps its previous sibling")
            last_end[s.parent] = s.end
        return probs

    def named(self, *names: str) -> List[Span]:
        return [s for s in self.spans if s.name in names]

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("cannot clear a tracer with open spans")
        self.spans = []


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the WRAPS spans on cocyclelab; restore every binding on exit.

    Yields the bindings that the program no longer has. Their time would
    silently move into the caller's self time, so the benchmark counts a
    non-empty list as a failure.
    """
    saved = []
    missing = []
    try:
        for modname, entries in WRAPS.items():
            mod = importlib.import_module(f"cocyclelab.{modname}")
            for attr, span_name in entries:
                fn = getattr(mod, attr, None)
                if fn is None:
                    missing.append(f"{modname}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, tracer.wrap(fn, span_name))
        yield missing
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
