"""Shared numeric and serialization helpers (internal)."""
from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

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
# another, so the crossover lies between 1024 and 2048 rows. With one
# worker walking BLOCK_ROWS blocks, 2 against 1 worker (fresh processes,
# about 1e6 node-steps a run, alternating; median time ratio, pairs where 2
# workers won) read 0.92 (9/12) and 0.93 (10/12) at 2048 rows, 1.02 (5/12)
# twice at 4096, 0.58 (11/12) at 16384 and 0.85 (10/12) at 65536: two
# workers still win from 2048 rows, so the crossover has not moved. At 4096
# rows the split is even; one worker there runs one block, as before blocks.
MIN_ROWS_PER_WORKER = 1024

# One worker hands fn blocks of at most this many rows. The orbit kernel's
# per-step temporaries are then 64-256 KiB, inside the 2 MiB L2 and below
# glibc's heap-trim threshold, so freed ones are reused from the heap; a
# whole 65536-row batch makes 1-4 MiB temporaries that go back to the OS and
# are faulted in again every step. On a 2-core host, amo on 65536 nodes with
# N = 32 in a fresh process (5 runs each, ns per node-step, minor faults):
# whole batch 195-223 (59k faults), blocks of 2048 163-235 (0.3k), 4096
# 136-172 (2.8k), 8192 205-243 (83k), 16384 206-232 (89k, 3 runs). Blocks
# of 8192 or more pass the trim threshold and fault more than the whole
# batch; 2048 pays more numpy dispatch per node. The renormalized amo and
# the renormalized 2-d Schrodinger cocycle were also fastest at 4096.
# Workers are not blocked:
# 4096-row blocks on both workers slowed a two-thread le on 65536 nodes in a
# warm process that had run the other wide experiments, from 0.15-0.17 s to
# 0.21-0.23 s, as many short numpy calls hand the interpreter lock back and
# forth.
BLOCK_ROWS = 4096

# The orbit kernel evaluates the points of max(1, LOOKAHEAD_ROWS // m) steps
# of an m-node chunk in one call (cocycle._iterate_chunk), so chunks of 512
# nodes or fewer pay the per-call cost of evaluation once per block of
# steps. At 1024 rows a block's evaluation temporaries (the phase table, the
# (2, 2, rows) output) stay under glibc's 128 KiB mmap threshold. On a
# 2-core host, the orbit-long benchmark experiments run in a fresh process
# (seeds 1-3, ru_maxrss after each) ended at 40.2-40.3 MB with 1024, as
# with no look-ahead (a budget of 1), but at 40.3-40.4 MB with 2048 and
# 40.7-40.9 MB with 4096. The avalanche blocks take their norms and logs
# this many matrices at a time, for the same small temporaries.
LOOKAHEAD_ROWS = 1024


def set_max_workers(n: int) -> None:
    """Set the worker-count hint for node-batch evaluation.

    Results are byte-identical for every value: per-node arithmetic does not
    depend on the chunking, and chunk results are reassembled in input order.
    """
    global _max_workers
    _max_workers = max(1, int(n))


def map_chunked(fn, n: int) -> list:
    """Apply fn to row ranges covering range(n), in order, optionally on a
    thread pool; fn gets each range as a slice and the results come back as
    a list.

    The worker count is set_max_workers's value, capped at the number of
    cores: more threads than cores cannot run at once, and each one costs an
    OS thread. It is also capped at one worker per MIN_ROWS_PER_WORKER rows,
    below which a chunk's numpy calls are too short for the threads to
    overlap.

    One worker walks the rows in consecutive blocks of at most BLOCK_ROWS,
    so fn's per-row temporaries fit in L2 and stay below the allocator's
    trim threshold instead of being faulted in afresh on every step (the
    sweep is at BLOCK_ROWS). Two or more workers each get one contiguous
    chunk. fn must treat rows independently, as the orbit kernel does, for
    the split to leave its results unchanged.
    """
    w = min(_max_workers, os.cpu_count() or 1, n // MIN_ROWS_PER_WORKER)
    if w <= 1:
        # max(n, 1): no rows still make one (empty) call
        return [fn(slice(i, min(i + BLOCK_ROWS, n)))
                for i in range(0, max(n, 1), BLOCK_ROWS)]
    bounds = [round(i * n / w) for i in range(w + 1)]
    chunks = [slice(bounds[i], bounds[i + 1]) for i in range(w)]
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
        raise ValueError(f"grid size M = {M} is not a power of two")
    return grid(d, M)


def _disc_2x2(E, scratch=None):
    """(f, disc) of the closed form in op_norm_2x2; either may overflow.

    E is float64 or complex128. One call squares the float view of all four
    entries (for complex E, real and imaginary parts interleaved) into
    scratch when one is given (a C-order array of E's shape and dtype,
    whose values are then lost); f adds the squares left to right, eight
    for complex E and four for real E, and |det|^2 is det.real^2 +
    det.imag^2 or det * det. np.add.reduce would pair them (for m = 1 its
    order differs), so the sum is spelled out. For complex E whose
    imaginary parts are all zero, every added square is +0 and each
    product's real part is the float64 one, so both give the same bits.
    """
    E = np.ascontiguousarray(E)
    sq = np.square(E.view(float),
                   out=None if scratch is None else scratch.view(float))
    det = E[0, 0] * E[1, 1] - E[0, 1] * E[1, 0]
    if np.iscomplexobj(E):
        f = (sq[0, 0, 0::2] + sq[0, 0, 1::2] + sq[0, 1, 0::2] + sq[0, 1, 1::2]
             + sq[1, 0, 0::2] + sq[1, 0, 1::2] + sq[1, 1, 0::2]
             + sq[1, 1, 1::2])
        det2 = det.real**2 + det.imag**2
    else:
        f = sq[0, 0] + sq[0, 1] + sq[1, 0] + sq[1, 1]
        det2 = det * det
    return f, f * f - 4.0 * det2


def _sigma_max(f, disc):
    # disc >= 0 exactly; tiny negatives are rounding.
    return np.sqrt(0.5 * (f + np.sqrt(np.maximum(disc, 0.0))))


# Below this squared Frobenius norm f the closed form's f*f leaves the
# normal range (2^-1022) and loses bits to underflow, down to f*f = 0, where
# the norm reads sqrt(f/2); f itself is 0 for entries below about 1e-162.
_F_MIN = 2.0**-511


def op_norm_2x2(E) -> np.ndarray:
    """Operator 2-norm (largest singular value) of the 2x2 matrices
    [[a, b], [c, d]] = [[E[0, 0], E[0, 1]], [E[1, 0], E[1, 1]]], given as an
    entry-major (2, 2, m) stack, float64 or complex128.

    Closed form from the Frobenius norm and |det|:
    sigma_max^2 = (f + sqrt(f^2 - 4|det|^2)) / 2 with f = ||M||_F^2.
    f^2 overflows once sigma_max passes about 1e77, and underflows once the
    entries fall below about 1e-77. A matrix with finite entries on either
    tail (f^2 - 4|det|^2 not finite, or f below 2^-511) is divided by its
    largest entry modulus first and its norm multiplied back; a zero matrix
    keeps norm 0. A NaN or infinite entry still gives a non-finite norm.
    """
    return _op_norm(E)[0]


def _op_norm(E, scratch=None):
    """(op_norm_2x2(E), closed): closed is True when no matrix was on a
    tail, and then every norm is finite and at least sqrt(2^-512) = 2^-256.
    scratch is as in _disc_2x2."""
    with np.errstate(over="ignore", invalid="ignore"):
        f, disc = _disc_2x2(E, scratch)
    out = _sigma_max(f, disc)
    # one reduction per tail; max and min propagate a NaN
    closed = (disc.max(initial=-np.inf) < np.inf
              and f.min(initial=np.inf) >= _F_MIN)
    if not closed:
        tail = ~np.isfinite(disc) | (f < _F_MIN)
        tail &= np.isfinite(E).all(axis=(0, 1))
        ents = E[:, :, tail]
        # numpy divides a complex v by a real scale as v * (1 / scale), so
        # either dtype is multiplied by that reciprocal; 1 / scale overflows
        # for a subnormal scale, and lifting the tiny side by 2^600 is
        # exact, so a normal scale's quotients keep their bits
        lift = np.where(f[tail] < _F_MIN, 2.0**600, 1.0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            scale = np.abs(ents).max(axis=(0, 1))
            unit = _sigma_max(*_disc_2x2(ents * lift * (1.0 / (scale * lift))))
            out[tail] = np.where(scale > 0, scale * unit, 0.0)
    return out, closed


def step_2x2(mats: np.ndarray, U: np.ndarray, out: np.ndarray):
    """One step of m 2x2 running products: out <- mats @ U. Returns their
    norms and whether every one came from the closed form, as _op_norm.

    mats is an (m, 2, 2) stack; U and out are entry-major (2, 2, m). Each is
    float64 or complex128, and out has U's dtype: real matrices step real
    products in real arithmetic, and complex products in complex. Row i of
    a product is M_i0 * (row 0 of U) + M_i1 * (row 1 of U), elementwise with
    no BLAS, so its bits depend neither on the batch nor on the BLAS build.
    Where every imaginary part is zero, a complex product's real part is
    a*b - 0 and rounds once, with or without a fused multiply-add, so real
    and complex products have the same real bits.
    mats is read in place in any layout: as a view of entry-major memory
    (a whole evaluation or one step's slice of a stacked one) its nodes are
    contiguous, and a C-order stack is read strided. Elementwise products
    give the same bits either way. The second product goes to a scratch
    array that then takes the norm's squares, so the step allocates one
    (2, 2, m) temporary for both.
    """
    M = mats.transpose(1, 2, 0)
    np.multiply(M[:, 0, None], U[0], out=out)
    second = M[:, 1, None] * U[1]
    out += second
    # a C-order stack gives the product its own strided layout
    return _op_norm(out, second if second.flags.c_contiguous else None)


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
    """Sum a 1-D array by strict binary trees over power-of-two blocks: the
    one-segment case of pairwise_totals.

    Equal inputs of length 2^k sum to exactly 2^k times the element, so means
    of constant arrays are exact whenever the length is a power of two. The
    reduction order is fixed, independent of any threading above it.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    return float(pairwise_totals(a, [0], [a.size])[0])


def pairwise_totals(values, starts, lengths) -> np.ndarray:
    """The pairwise total of each segment values[s:s + n], for s, n in
    zip(starts, lengths), as a float64 array; an empty segment totals 0.

    A segment of length n is cut, left to right, into power-of-two blocks
    by the binary digits of n from the highest down. Each block is summed
    by a strict binary tree (pairs of neighbours, then pairs of those), and
    the block sums are joined left to right. The blocks of one size are
    summed together for every segment that has one, so the numpy calls
    grow with the bits of the longest segment, not with the segments.
    """
    a = np.asarray(values, dtype=np.float64).ravel()
    starts = np.asarray(starts, dtype=np.intp)
    lengths = np.asarray(lengths, dtype=np.intp)
    total = np.zeros(lengths.size)
    sizes = int(np.bitwise_or.reduce(lengths, initial=0))
    for k in range(sizes.bit_length() - 1, -1, -1):
        size = 1 << k
        if not sizes & size:
            continue
        seg = np.flatnonzero(lengths & size)
        ahead = lengths[seg] >> (k + 1) << (k + 1)   # the larger blocks
        at = starts[seg] + ahead
        if seg.size == 1:
            block = a[at[0]:at[0] + size][None]
        else:
            block = np.lib.stride_tricks.sliding_window_view(a, size)[at]
        while block.shape[1] > 1:
            block = block[:, 0::2] + block[:, 1::2]
        # where(...), not 0 + part: a first part of -0.0 keeps its sign
        total[seg] = np.where(ahead == 0, block[:, 0],
                              total[seg] + block[:, 0])
    return total


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

# Rows the CSV writer formats at a time. Each block becomes one flat list of
# its cells, one tuple of them and one string, made by a single % of the row
# template repeated for every row, so no per-row tuple or string is built.
# Holding every line of a large table as its own object until the end left
# the allocator's memory fragmented for the rest of the run.
CSV_BLOCK = 4096


def _cell_format(t: type) -> str:
    return "%d" if issubclass(t, _INT_TYPES) else "%.17g"


def _block_text(columns) -> str:
    """The newline-terminated lines of one block of rows, given as equally
    long columns (sequences or numpy arrays), formatted by one %."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c
               for c in columns]
    width, n = len(columns), len(columns[0])
    cells = [None] * (width * n)
    formats = []
    for j, col in enumerate(columns):
        cells[j::width] = col
        kinds = set(map(_cell_format, set(map(type, col))))
        formats.append(kinds.pop() if len(kinds) == 1 else None)
    if None in formats:
        # a column mixes integer and other cells: every row gets the
        # formats of its own cells
        template = "".join(
            ",".join(map(_cell_format, map(type, cells[i:i + width]))) + "\n"
            for i in range(0, width * n, width))
    else:
        template = (",".join(formats) + "\n") * n
    return template % tuple(cells)


def csv_text(header, rows=(), *, blocks=None) -> str:
    """CSV text: the header line, then one line per row, newline-terminated.

    The table comes as rows (an iterable of equally long rows, a generator
    included) or as blocks (an iterable of blocks, each a list of equally
    long columns: sequences or numpy arrays, converted with tolist()). Rows
    are cut into blocks of CSV_BLOCK rows, so both forms go through one
    block formatter. Integer cells (int, np.integer) are written as
    integers, "%d" as str(int(v)), and every other cell as "%.17g", which is
    fmt17 for any number. A block is formatted by one %-template: the row
    template of its columns' formats, repeated for every row. A column that
    mixes integer and other cells makes each row's template from its own
    cells, so a float in an integer column is never truncated.
    """
    if blocks is None:
        it = iter(rows)
        blocks = (list(zip(*block))
                  for block in iter(lambda: list(islice(it, CSV_BLOCK)), []))
    # every line carries its newline, so the text is one join of the blocks
    parts = [",".join(header) + "\n"]
    parts.extend(map(_block_text, blocks))
    return "".join(parts)


def _json_object(items, out: list) -> None:
    out.append("{")
    for i, (k, v) in enumerate(items):
        if i:
            out.append(", ")
        out.append(json.dumps(str(k)))
        out.append(": ")
        _json_fragments(v, out)
    out.append("}")


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
        _json_object(obj.items(), out)
    elif isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a named tuple
        _json_object(zip(obj._fields, obj), out)
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
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _json_object(((f.name, getattr(obj, f.name))
                      for f in dataclasses.fields(obj) if f.repr), out)
    else:
        raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def to_json_text(obj) -> str:
    """Deterministic JSON text: insertion order kept, floats at 17 digits.

    A result's JSON is its fields: a dataclass instance is written as an
    object of its fields in declaration order, leaving out those declared
    repr=False, and a named tuple as an object of its _fields. Dict keys are
    written as strings, and inf and nan as the strings "inf", "-inf", "nan".
    """
    out: list = []
    _json_fragments(obj, out)
    out.append("\n")
    return "".join(out)
