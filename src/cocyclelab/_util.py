"""Shared numeric and serialization helpers (internal)."""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ScanTooLarge

# Norm floor below which a running product counts as underflowed.
UNDERFLOW_FLOOR = 1e-300

# Memory guard for explicit node sets.
MAX_NODES = 1 << 22

_max_workers = 1

# A thread pays only above this many rows per worker. On a 2-core host the
# orbit kernel on amo (about 4e5 node-steps a run, 15 to 21 pairs of 1 and 2
# workers) ran 1.6x slower at 2 workers with 512 rows and 1.2-1.5x with
# 1024, but 0.55x with 2048, 0.76-0.90x with 3072 and 0.75-0.85x with 4096,
# faster in every pair. 1536 rows read 1.09x in one set and 0.72x in
# another, so the crossover lies between 1024 and 2048 rows.
MIN_ROWS_PER_WORKER = 1024


def set_max_workers(n: int) -> None:
    """Set the worker-count hint for node-batch evaluation.

    Results are byte-identical for every value: per-node arithmetic does not
    depend on the chunking, and chunk results are reassembled in input order.
    """
    global _max_workers
    _max_workers = max(1, int(n))


def map_chunked(fn, arr: np.ndarray) -> list:
    """Apply fn to row-chunks of arr, in order, optionally on a thread pool.

    The worker count is set_max_workers's value, capped at the number of
    cores: more threads than cores cannot run at once, and each one costs an
    OS thread. It is also capped at one worker per MIN_ROWS_PER_WORKER rows,
    below which a chunk's numpy calls are too short for the threads to
    overlap.
    """
    n = arr.shape[0]
    w = min(_max_workers, os.cpu_count() or 1, n // MIN_ROWS_PER_WORKER)
    if w <= 1:
        return [fn(arr)]
    bounds = [round(i * n / w) for i in range(w + 1)]
    chunks = [arr[bounds[i]:bounds[i + 1]] for i in range(w)]
    with ThreadPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, chunks))


def grid(d: int, M: int, offset: float = 0.0) -> np.ndarray:
    """The M^d nodes of T^d with coordinates (i + offset)/M, i = 0..M-1, as an
    (M^d, d) array in row-major order (the last coordinate varies fastest).

    Raises ScanTooLarge before allocating anything past MAX_NODES nodes.
    """
    if M ** d > MAX_NODES:
        raise ScanTooLarge(f"{M ** d} grid nodes exceeds guard {MAX_NODES}")
    axis = (np.arange(M) + offset) / M
    grids = np.meshgrid(*(axis,) * d, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, d)


def dyadic_grid(d: int, M: int) -> np.ndarray:
    """grid(d, M) for M a power of two: every node i/M is exact, so an integer
    map of the torus sends nodes exactly onto nodes."""
    if M < 1 or (M & (M - 1)) != 0:
        raise ValueError("grid size must be a power of two")
    return grid(d, M)


def _disc_2x2(a, b, c, d):
    """(f, disc) of the closed form in op_norm_2x2; either may overflow."""
    f = (a.real**2 + a.imag**2 + b.real**2 + b.imag**2
         + c.real**2 + c.imag**2 + d.real**2 + d.imag**2)
    det = a * d - b * c
    det2 = det.real**2 + det.imag**2
    return f, f * f - 4.0 * det2


def _sigma_max(f, disc):
    # disc >= 0 exactly; tiny negatives are rounding.
    return np.sqrt(0.5 * (f + np.sqrt(np.maximum(disc, 0.0))))


def op_norm_2x2(a, b, c, d) -> np.ndarray:
    """Operator 2-norm (largest singular value) of the 2x2 complex matrices
    [[a, b], [c, d]], given entrywise as four equal-shape arrays.

    Closed form from the Frobenius norm and |det|:
    sigma_max^2 = (f + sqrt(f^2 - 4|det|^2)) / 2 with f = ||M||_F^2.
    f^2 overflows once sigma_max passes about 1e77, so a matrix with finite
    entries whose f^2 - 4|det|^2 is not finite is divided by its largest
    entry modulus first and its norm multiplied back. A NaN or infinite
    entry still gives a non-finite norm.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        f, disc = _disc_2x2(a, b, c, d)
    out = _sigma_max(f, disc)
    if not np.isfinite(disc).all():
        big = (~np.isfinite(disc) & np.isfinite(a) & np.isfinite(b)
               & np.isfinite(c) & np.isfinite(d))
        ents = [v[big] for v in (a, b, c, d)]
        with np.errstate(over="ignore"):
            scale = np.maximum.reduce([np.abs(v) for v in ents])
            out[big] = scale * _sigma_max(*_disc_2x2(*(v / scale for v in ents)))
    return out


def det_2x2(mats: np.ndarray) -> np.ndarray:
    m = np.asarray(mats)
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


class PairwiseSum:
    """Binary-counter pairwise accumulator for a stream of equal-shape arrays.

    Adding 2^j * n terms of a constant stream yields exactly 2^j times the sum
    of n terms (every intermediate operation scales by a power of two), which
    makes averages of constant streams independent of the stream length. Plain
    sequential accumulation does not have that property.
    """

    def __init__(self):
        self._levels: list[np.ndarray | None] = []

    def add(self, x: np.ndarray) -> None:
        carry = x
        for i in range(len(self._levels)):
            held = self._levels[i]
            if held is None:
                self._levels[i] = carry
                return
            carry = held + carry
            self._levels[i] = None
        self._levels.append(carry)

    def total(self) -> np.ndarray:
        # Combine leftovers smallest-first so the partial sizes stay sorted.
        acc = None
        for held in self._levels:
            if held is None:
                continue
            acc = held if acc is None else acc + held
        if acc is None:
            raise ValueError("empty accumulator")
        return acc


def pairwise_total(values) -> float:
    """Sum a 1-D array by strict binary trees over power-of-two blocks.

    Equal inputs of length 2^k sum to exactly 2^k times the element, so means
    of constant arrays are exact whenever the length is a power of two. The
    reduction order is fixed, independent of any threading above it.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    total = None
    i = 0
    n = a.size
    while i < n:
        k = 1 << ((n - i).bit_length() - 1)
        block = a[i:i + k]
        while block.size > 1:
            block = block[0::2] + block[1::2]
        part = float(block[0])
        total = part if total is None else total + part
        i += k
    return 0.0 if total is None else total


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def halton(n: int, d: int) -> np.ndarray:
    """First n Halton points in [0,1)^d (radical inverse, bases = first d primes)."""
    if d > len(_PRIMES):
        raise ValueError(f"halton supports d <= {len(_PRIMES)}")
    out = np.empty((n, d))
    idx = np.arange(1, n + 1, dtype=np.int64)
    for j in range(d):
        base = _PRIMES[j]
        res = np.zeros(n)
        denom = 1.0
        i = idx.copy()
        while i.any():
            denom *= base
            res += (i % base) / denom
            i //= base
        out[:, j] = res
    return out


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (enough to round-trip);
    infinities and NaN come out as inf, -inf and nan."""
    return format(float(x), ".17g")


_INT_TYPES = (int, np.integer)

# Rows the CSV writers handle at a time: csv_text joins this many lines into
# one string, and coeffs_to_csv converts this many rows to Python numbers.
# Holding every line of a large table as its own object until the end left
# the allocator's memory fragmented for the rest of the run.
CSV_BLOCK = 4096


def csv_text(header, rows) -> str:
    """CSV text: the header line, then one line per row, newline-terminated.

    Integer cells (int, np.integer) are written as integers, "%d" as
    str(int(v)), and every other cell as "%.17g", which is fmt17 for any
    number. Each row is formatted by one %-template, built once for each
    sequence of cell types met, so a float in an integer column is never
    truncated. rows may be a generator, so a large table is never held as
    per-column lists.
    """
    templates: dict = {}
    parts: list = []
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = ",".join(
                "%d" if issubclass(t, _INT_TYPES) else "%.17g" for t in types)
        lines.append(template % row)
        if len(lines) == CSV_BLOCK:
            parts.append("\n".join(lines))
            lines.clear()
    if lines:
        parts.append("\n".join(lines))
    return "\n".join(parts) + "\n"


def _json_fragments(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            out.append(json.dumps(fmt17(obj)))  # strict JSON: encode as string
        else:
            out.append(fmt17(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _json_fragments(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _json_fragments(v, out)
        out.append("]")
    elif isinstance(obj, (np.integer,)):
        out.append(str(int(obj)))
    elif isinstance(obj, (np.floating,)):
        _json_fragments(float(obj), out)
    else:
        raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def to_json_text(obj) -> str:
    """Deterministic JSON text: insertion order kept, floats at 17 digits."""
    out: list = []
    _json_fragments(obj, out)
    out.append("\n")
    return "".join(out)
