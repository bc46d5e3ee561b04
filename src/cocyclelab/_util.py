"""Shared numeric and serialization helpers (internal)."""
from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Norm floor below which a running product counts as underflowed.
UNDERFLOW_FLOOR = 1e-300

_max_workers = 1


def set_max_workers(n: int) -> None:
    """Set the worker-count hint for node-batch evaluation.

    Results are byte-identical for every value: per-node arithmetic does not
    depend on the chunking, and chunk results are reassembled in input order.
    """
    global _max_workers
    _max_workers = max(1, int(n))


def map_chunked(fn, arr: np.ndarray, workers: int | None = None) -> list:
    """Apply fn to row-chunks of arr, in order, optionally on a thread pool.

    The worker count is capped at the number of cores: more threads than
    cores cannot run at once, and each one costs an OS thread.
    """
    w = _max_workers if workers is None else max(1, int(workers))
    w = min(w, os.cpu_count() or 1)
    n = arr.shape[0]
    if w <= 1 or n < 2 * w:
        return [fn(arr)]
    bounds = [round(i * n / w) for i in range(w + 1)]
    chunks = [arr[bounds[i]:bounds[i + 1]] for i in range(w) if bounds[i] < bounds[i + 1]]
    with ThreadPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, chunks))


def op_norm_2x2(a, b, c, d) -> np.ndarray:
    """Operator 2-norm (largest singular value) of the 2x2 complex matrices
    [[a, b], [c, d]], given entrywise as four equal-shape arrays.

    Closed form from the Frobenius norm and |det|:
    sigma_max^2 = (f + sqrt(f^2 - 4|det|^2)) / 2 with f = ||M||_F^2.
    """
    f = (a.real**2 + a.imag**2 + b.real**2 + b.imag**2
         + c.real**2 + c.imag**2 + d.real**2 + d.imag**2)
    det = a * d - b * c
    det2 = det.real**2 + det.imag**2
    disc = f * f - 4.0 * det2
    # disc >= 0 exactly; tiny negatives are rounding.
    disc = np.maximum(disc, 0.0)
    return np.sqrt(0.5 * (f + np.sqrt(disc)))


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


def csv_text(header, rows) -> str:
    """CSV text: the header line, then one line per row, newline-terminated.

    Integer cells (int, np.integer) are written as integers and every other
    cell through fmt17. rows may be a generator, so a large table is never
    held as per-column lists.
    """
    lines = [",".join(header)]
    lines.extend(",".join([str(int(v)) if isinstance(v, _INT_TYPES)
                           else fmt17(v) for v in row]) for row in rows)
    return "\n".join(lines) + "\n"


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
