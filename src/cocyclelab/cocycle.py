"""Matrix-valued trigonometric polynomials on T^d and cocycle iteration.

A cocycle is a pair (A, omega): A maps the torus into 2x2 complex matrices and
omega drives the shift x -> x + omega. Iterates multiply A along the orbit,
A_N(x) = A(x + (N-1) omega) ... A(x + omega) A(x), and the central quantity is
the averaged log-norm (1/N) ln ||A_N(x)||.

Two representations coexist behind one evaluation interface: exact
trigonometric polynomials (finitely many Fourier coefficients) and pointwise
analytic evaluators (the determinant-renormalized cocycle, the diagonal
exponential example and the composition with a torus automorphism, whose
entries are not trig polynomials). Anything with ``d``, ``eval`` and
``eval_many`` can be iterated. Everything evaluates on the real torus;
strip_norm is the one evaluator at complex points.

Every orbit product runs through one kernel, _iterate_chunk, entered only
through iterate_log_norm_many: a batch of starting points, read at one or
several step counts of a single orbit. iterate_log_norm is its one-point case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._util import UNDERFLOW_FLOOR, PairwiseSum, det_2x2, grid, map_chunked, op_norm_2x2
from .errors import IdenticallySingular, OutsideStrip, Singular
from .torus import Automorphism, Frequency

TWO_PI_I = 2j * math.pi


def _frac(x: np.ndarray) -> np.ndarray:
    return x - np.floor(x)


def _tables(d: int, coeffs: dict, shape: tuple):
    """Sorted index table ks (n, d), coefficient table cs (n,) + shape, and
    the number h of indices k > 0 when the table is symmetric (k in it
    exactly when -k is), else None. Built once per object, as the kernel
    evaluates A at every step."""
    keys = sorted(coeffs)
    ks = np.array(keys, dtype=np.int64).reshape(-1, d)
    cs = np.array([coeffs[k] for k in keys], dtype=complex).reshape((-1,) + shape)
    sym = all(tuple(-v for v in k) in coeffs for k in keys)
    return ks, cs, (len(keys) // 2 if sym else None)


def _phases(X: np.ndarray, ks: np.ndarray, h: Optional[int]) -> np.ndarray:
    """e^{2 pi i k.x} for every node x in X and index k in ks: (m, n).

    On a symmetric table (h from _tables) the sorted indices pair up as
    ks[n-1-j] = -ks[j], so exp runs only over the h indices k > 0: the
    column of -k is the conjugate of that of k, and the column of k = 0 is 1.
    Every bit matches exp over the whole table. The conjugate's imaginary
    part is taken as 0 - im, which is +0 where exp at -k.x gives +0. The
    products k.x come from one matmul over the whole table, as BLAS may round
    a column differently in a narrower product. For d > 1 BLAS does not
    always give the two columns of a pair exactly opposite sums; then exp
    runs over every column.
    """
    theta = X @ ks.T
    n = ks.shape[0]
    if not h or (ks.shape[1] > 1 and not np.array_equal(
            theta[:, :h], np.negative(theta[:, :n - h - 1:-1]))):
        return np.exp(TWO_PI_I * theta)
    out = np.empty(theta.shape, dtype=complex)
    upper, lower = out[:, n - h:], out[:, h - 1::-1]
    np.exp(TWO_PI_I * theta[:, n - h:], out=upper)
    if n - h > h:
        out[:, h] = 1.0
    lower.real = upper.real
    np.subtract(0.0, upper.imag, out=lower.imag)
    return out


# ---------------------------------------------------------------------------
# Scalar trigonometric polynomials
# ---------------------------------------------------------------------------

class TrigPoly:
    """A finite Fourier sum f(x) = sum_k c_k e^{2 pi i k.x} on T^d."""

    def __init__(self, d: int, coeffs: dict):
        self.d = int(d)
        clean = {}
        for k, c in coeffs.items():
            kt = tuple(int(v) for v in k)
            if len(kt) != self.d:
                raise ValueError(f"coefficient index {kt} has wrong dimension")
            c = complex(c)
            if c != 0:
                clean[kt] = c
        self.coeffs = clean
        self._ks, self._cs, self._half = _tables(self.d, clean, ())

    @classmethod
    def constant(cls, d: int, value: complex) -> "TrigPoly":
        return cls(d, {(0,) * d: value})

    @classmethod
    def cosine(cls, k: Sequence[int], amplitude: float = 1.0) -> "TrigPoly":
        """amplitude * cos(2 pi k.x)."""
        kt = tuple(int(v) for v in k)
        neg = tuple(-v for v in kt)
        return cls(len(kt), {kt: amplitude / 2.0, neg: amplitude / 2.0})

    @classmethod
    def sine(cls, k: Sequence[int], amplitude: float = 1.0) -> "TrigPoly":
        """amplitude * sin(2 pi k.x)."""
        kt = tuple(int(v) for v in k)
        neg = tuple(-v for v in kt)
        return cls(len(kt), {kt: amplitude / 2j, neg: -amplitude / 2j})

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(abs(v) for v in k) for k in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_real(self, tol: float = 1e-9) -> bool:
        for k, c in self.coeffs.items():
            neg = tuple(-v for v in k)
            if abs(c - self.coeffs.get(neg, 0j).conjugate()) > tol:
                return False
        return True

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _phases(X, self._ks, self._half) @ self._cs

    def eval(self, x) -> complex:
        return complex(self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def shift(self, t: Sequence[float]) -> "TrigPoly":
        """f(x + t): multiplies c_k by e^{2 pi i k.t}."""
        tv = np.asarray(t, dtype=float)
        return TrigPoly(self.d, {k: c * complex(np.exp(TWO_PI_I * float(np.dot(k, tv))))
                                 for k, c in self.coeffs.items()})

    def conjugate(self) -> "TrigPoly":
        """x -> conj(f(x)): coefficient c_k becomes conj(c_{-k})."""
        return TrigPoly(self.d, {tuple(-v for v in k): c.conjugate()
                                 for k, c in self.coeffs.items()})

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0j) + c
        return TrigPoly(self.d, out)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(self.d, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0j) + c1 * c2
        return TrigPoly(self.d, out)

    def scaled(self, s: complex) -> "TrigPoly":
        return TrigPoly(self.d, {k: s * c for k, c in self.coeffs.items()})


def _as_poly(v, d: int) -> TrigPoly:
    if isinstance(v, TrigPoly):
        if v.d != d:
            raise ValueError("dimension mismatch")
        return v
    return TrigPoly.constant(d, complex(v))


# ---------------------------------------------------------------------------
# Matrix trigonometric polynomials
# ---------------------------------------------------------------------------

class TrigPolyMatrix:
    """M(2,C)-valued trig polynomial with an analyticity budget rho.

    coeffs maps k in Z^d (max-norm |k| <= degree) to a 2x2 complex matrix.
    Values are immutable by convention; nothing here mutates a stored array.
    """

    def __init__(self, d: int, coeffs: dict, rho: float):
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.d = int(d)
        self.rho = float(rho)
        clean = {}
        for k, m in coeffs.items():
            kt = tuple(int(v) for v in k)
            if len(kt) != self.d:
                raise ValueError(f"coefficient index {kt} has wrong dimension")
            arr = np.array(m, dtype=complex)
            if arr.shape != (2, 2):
                raise ValueError("coefficients must be 2x2 matrices")
            if np.any(arr != 0):
                clean[kt] = arr
        self.coeffs = clean
        self._ks, self._cs, self._half = _tables(self.d, clean, (2, 2))

    @classmethod
    def constant(cls, d: int, matrix, rho: float = 0.5) -> "TrigPolyMatrix":
        return cls(d, {(0,) * d: np.array(matrix, dtype=complex)}, rho)

    @classmethod
    def from_entries(cls, e11: TrigPoly, e12: TrigPoly, e21: TrigPoly,
                     e22: TrigPoly, rho: float) -> "TrigPolyMatrix":
        d = e11.d
        out: dict = {}
        for (i, j), p in (((0, 0), e11), ((0, 1), e12), ((1, 0), e21), ((1, 1), e22)):
            for k, c in p.coeffs.items():
                m = out.setdefault(k, np.zeros((2, 2), dtype=complex))
                m[i, j] = c
        return cls(d, out, rho)

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(abs(v) for v in k) for k in self.coeffs)

    def entry(self, i: int, j: int) -> TrigPoly:
        return TrigPoly(self.d, {k: m[i, j] for k, m in self.coeffs.items()})

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        phases = _phases(X, self._ks, self._half)
        return np.einsum("mn,nij->mij", phases, self._cs)

    def eval(self, x) -> np.ndarray:
        """A(x) for a real point x of T^d."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.d:
            raise ValueError(f"point has dimension {x.shape[0]}, expected {self.d}")
        return self.eval_many(x.reshape(1, -1))[0]

    def __matmul__(self, other: "TrigPolyMatrix") -> "TrigPolyMatrix":
        out: dict = {}
        for k1, m1 in self.coeffs.items():
            for k2, m2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                acc = out.get(k)
                prod = m1 @ m2
                out[k] = prod if acc is None else acc + prod
        return TrigPolyMatrix(self.d, out, min(self.rho, other.rho))

    def __add__(self, other: "TrigPolyMatrix") -> "TrigPolyMatrix":
        out = {k: m.copy() for k, m in self.coeffs.items()}
        for k, m in other.coeffs.items():
            out[k] = out.get(k, np.zeros((2, 2), dtype=complex)) + m
        return TrigPolyMatrix(self.d, out, min(self.rho, other.rho))

    def __sub__(self, other: "TrigPolyMatrix") -> "TrigPolyMatrix":
        return self + other.scaled(-1.0)

    def scaled(self, s: complex) -> "TrigPolyMatrix":
        return TrigPolyMatrix(self.d, {k: s * m for k, m in self.coeffs.items()},
                              self.rho)


def det_scalar(A: TrigPolyMatrix) -> TrigPoly:
    """det A(x) as an exact trig polynomial (coefficient convolution)."""
    return A.entry(0, 0) * A.entry(1, 1) - A.entry(0, 1) * A.entry(1, 0)


@dataclass(frozen=True)
class StripNormResult:
    value: float
    samples: int


def strip_norm(A: TrigPolyMatrix, B: TrigPolyMatrix, rho: float,
               points_per_dim: int = 256) -> StripNormResult:
    """sup over the strip |Im z_j| <= rho of the entrywise max of |A(z) - B(z)|.

    By the per-variable maximum principle the sup sits on the 2^d corner faces
    Im z_j = +-rho; those faces are sampled on a uniform grid, plus the real
    torus as a degenerate face. The sample count is reported alongside.
    Each face is a points_per_dim^d grid, so past MAX_NODES nodes this raises
    ScanTooLarge before sampling.
    """
    if A.rho < rho - 1e-12 or B.rho < rho - 1e-12:
        raise OutsideStrip(f"strip radius {rho} exceeds a declared budget")
    D = A - B
    d = A.d
    X = grid(d, points_per_dim)
    best = 0.0
    ims = [np.zeros(d)]
    for signs in np.ndindex(*(2,) * d):
        ims.append(rho * (2.0 * np.array(signs) - 1.0))
    for im in ims:
        Z = X + 1j * im
        phases = np.exp(TWO_PI_I * (Z @ D._ks.T))
        vals = np.einsum("mn,nij->mij", phases, D._cs)
        best = max(best, float(np.max(np.abs(vals))))
    return StripNormResult(value=best, samples=len(ims) * X.shape[0])


# ---------------------------------------------------------------------------
# Pointwise evaluators
# ---------------------------------------------------------------------------

class RenormalizedMatrix:
    """Pointwise x -> A(x)/|det A(x)|^{1/2}.

    Not a trig polynomial (|det|^{1/2} is not), so it only evaluates. Nodes
    with |det A(x)| below the floor are singular: batch evaluation marks them
    with NaN entries (the iterator treats NaN as underflow), single-point
    evaluation raises Singular.
    """

    def __init__(self, base, floor: float = UNDERFLOW_FLOOR):
        self.base = base
        self.floor = float(floor)
        self.d = base.d

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        vals = self.base.eval_many(X)
        det = det_2x2(vals)
        mag = np.abs(det)
        bad = mag < self.floor
        scale = np.where(bad, np.nan, 1.0 / np.sqrt(np.where(bad, 1.0, mag)))
        return vals * scale[:, None, None]

    def eval(self, x) -> np.ndarray:
        out = self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0]
        if not np.all(np.isfinite(out)):
            raise Singular(f"|det A(x)| < {self.floor} at x = {x}")
        return out


def renormalize(A, floor: float = UNDERFLOW_FLOOR) -> RenormalizedMatrix:
    """Divide A pointwise by |det A|^{1/2}; result has |det| = 1 off zeros."""
    if isinstance(A, TrigPolyMatrix) and det_scalar(A).is_zero():
        raise IdenticallySingular("det A is identically zero")
    return RenormalizedMatrix(A, floor=floor)


class DiscontinuityExample:
    """diag(e^{lam(x)}, e^{-lam(x)}) with lam(x) = e^{2 pi i k.x} e^{-2 pi sum(k)}.

    The entries are exponentials of a trig monomial, hence analytic but not
    polynomial; this is a pointwise evaluator.
    """

    def __init__(self, k: Sequence[int]):
        kt = tuple(int(v) for v in k)
        if all(v == 0 for v in kt):
            raise ValueError("k must be nonzero")
        self.k = kt
        self.d = len(kt)
        self.scale = math.exp(-2.0 * math.pi * sum(kt))

    def lam_many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        kv = np.array(self.k, dtype=float)
        return np.exp(TWO_PI_I * (X @ kv)) * self.scale

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        lam = self.lam_many(X)
        out = np.zeros((lam.shape[0], 2, 2), dtype=complex)
        out[:, 0, 0] = np.exp(lam)
        out[:, 1, 1] = np.exp(-lam)
        return out

    def eval(self, x) -> np.ndarray:
        return self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0]


class ComposedMatrix:
    """(A o B)(x) = A(Bx) for an integer automorphism B, evaluated pointwise."""

    def __init__(self, base, B: Automorphism):
        if base.d != B.d:
            raise ValueError("dimension mismatch")
        self.base = base
        self.B = B
        self.d = base.d

    def eval_many(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.base.eval_many(_frac(X @ self.B.as_array().T.astype(float)))

    def eval(self, x) -> np.ndarray:
        return self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0]


# ---------------------------------------------------------------------------
# Cocycles and iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cocycle:
    """The pair (A, omega) acting on C^2 x T^d."""

    A: object
    omega: Frequency

    def __post_init__(self):
        if self.A.d != self.omega.d:
            raise ValueError(
                f"A is defined on T^{self.A.d} but omega lives in T^{self.omega.d}")

    @property
    def d(self) -> int:
        return self.omega.d


@dataclass
class LogNormResult:
    """(1/N) ln ||A_N(x)|| plus underflow accounting."""

    log_norm_avg: float
    underflowed: bool


def _left_multiply(mats: np.ndarray, U: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- mats @ U, for an (m, 2, 2) stack mats and U, out of shape (2, 2, m).

    A function of its own so that mats and its transposed copy are freed
    before the next step evaluates A: at 65536 nodes each is 4 MiB.
    """
    M = np.ascontiguousarray(mats.transpose(1, 2, 0))
    # Row i of the product is M_i0 * (row 0 of U) + M_i1 * (row 1 of U).
    np.multiply(M[:, 0, None], U[0], out=out)
    out += M[:, 1, None] * U[1]
    return out


def _iterate_chunk(A, omega_vec: np.ndarray, reads: Sequence[int], X: np.ndarray):
    """The orbit-product kernel: (avg, steps) for a batch of m starting points.

    The running products live in one (2, 2, m) array, entry-major with the
    nodes contiguous, so a step is a few elementwise operations on length-m
    arrays. reads is an increasing list of step counts; the orbit runs to
    the last one, and avg[r] is the average log-norm after reads[r] steps.
    Nothing before step n depends on how far the orbit goes, so avg[r] is
    bit-identical to that of a reads[r]-step orbit. steps[i] is the number
    of steps node i completed before its product underflowed (the orbit
    length if it never did); from then on the node carries the identity and
    adds 0 to its log sum.
    """
    m = X.shape[0]
    N = reads[-1]
    U = np.zeros((2, 2, m), dtype=complex)
    U[0, 0] = U[1, 1] = 1.0
    V = np.empty_like(U)
    steps = np.full(m, N)
    alive = None  # None while every node is alive, so no masking is needed
    acc = PairwiseSum()
    avg = np.empty((len(reads), m))
    r = 0
    pts = X.copy()
    for j in range(N):
        U, V = _left_multiply(A.eval_many(pts), U, V), U
        s = op_norm_2x2(U[0, 0], U[0, 1], U[1, 0], U[1, 1])
        ok = np.isfinite(s) & (s > UNDERFLOW_FLOOR)
        if alive is not None or not ok.all():
            alive = ok if alive is None else alive & ok
            steps[~alive & (steps == N)] = j
            s = np.where(alive, s, 1.0)
            U[:, :, ~alive] = np.eye(2)[:, :, None]
        # U / s would promote s to complex, and numpy's complex division with
        # a zero imaginary part multiplies by 1/s: same bits, lower cost.
        U *= 1.0 / s
        acc.add(np.log(s))
        if reads[r] == j + 1:
            # total() leaves the levels as they are, so the orbit goes on
            avg[r] = acc.total() / (j + 1)
            r += 1
        pts = _frac(pts + omega_vec)
    return avg, steps


def iterate_log_norm_many(C: Cocycle, N: int, X: np.ndarray,
                          at: Optional[Sequence[int]] = None):
    """Averaged log-norms over a batch of starting points.

    Returns (avg, underflowed): avg[i] = (1/N) ln ||A_N(X[i])||, and
    underflowed[i] marks nodes whose running product degenerated (norm below
    1e-300 or non-finite); their avg entry is meaningless.

    With at, the N-step orbit is read at each step count n in at (each
    1 <= n <= N, in any order, repeats allowed), and avg and underflowed
    have one row per entry: row r is bit for bit what N = at[r] returns.
    The orbit runs all N steps even when every n is smaller.

    Per-step renormalization keeps a unit-norm running matrix and accumulates
    the log factors with a power-of-two pairwise scheme, so the raw product is
    never formed and averages at N and 2^j N subtract exactly for constant
    inputs.
    """
    want = [N] if at is None else [int(n) for n in at]
    if N < 1 or any(n < 1 for n in want):
        raise ValueError("N must be >= 1")
    if any(n > N for n in want):
        raise ValueError(f"read point beyond the orbit length {N}")
    reads = sorted(set(want) | {N})
    X = np.atleast_2d(np.asarray(X, dtype=float))
    w = C.omega.as_array()
    parts = map_chunked(lambda chunk: _iterate_chunk(C.A, w, reads, chunk), X)
    avg = np.concatenate([p[0] for p in parts], axis=1)
    steps = np.concatenate([p[1] for p in parts])
    if at is None:
        return avg[0], steps < N
    rows = np.searchsorted(reads, want)
    return avg[rows], steps < np.array(want)[:, None]


def iterate_log_norm(C: Cocycle, N: int, x) -> LogNormResult:
    """(1/N) ln ||A_N(x, omega)|| at one point x: iterate_log_norm_many on one row.

    Underflow (zero or sub-1e-300 intermediate product) is reported via the
    flag, not raised; the average is -inf in that case.
    """
    avg, under = iterate_log_norm_many(C, N, np.asarray(x, dtype=float).reshape(1, -1))
    return LogNormResult(log_norm_avg=-math.inf if under[0] else float(avg[0]),
                         underflowed=bool(under[0]))


# ---------------------------------------------------------------------------
# Standard constructors
# ---------------------------------------------------------------------------

def schrodinger(v, E: float, rho: float = 0.5, d: int = 1) -> TrigPolyMatrix:
    """[[E - v(x), -1], [1, 0]]; determinant identically 1."""
    vp = _as_poly(v, d if not isinstance(v, TrigPoly) else v.d)
    d = vp.d
    if not vp.is_real():
        raise ValueError("v must be real-valued on the torus")
    e11 = TrigPoly.constant(d, E) - vp
    return TrigPolyMatrix.from_entries(
        e11, TrigPoly.constant(d, -1.0), TrigPoly.constant(d, 1.0),
        TrigPoly(d, {}), rho)


def amo(lam: float, E: float, rho: float = 0.5) -> TrigPolyMatrix:
    """Almost Mathieu: schrodinger with v(x) = 2 lam cos(2 pi x)."""
    return schrodinger(TrigPoly.cosine((1,), 2.0 * lam), E, rho=rho)


def jacobi(v, a, E: float, omega: Frequency, rho: float = 0.5) -> TrigPolyMatrix:
    """[[E - v(x), -conj(a(x - omega))], [a(x), 0]].

    The (1,2) entry is realized as a trig polynomial by conjugating the
    coefficients of a and phase-shifting by -omega.
    """
    d = omega.d
    vp = _as_poly(v, d)
    ap = _as_poly(a, d)
    if ap.is_zero():
        raise IdenticallySingular("a is identically zero")
    if not vp.is_real():
        raise ValueError("v must be real-valued on the torus")
    a_conj_shift = ap.shift(-omega.as_array()).conjugate()
    e11 = TrigPoly.constant(d, E) - vp
    return TrigPolyMatrix.from_entries(e11, -a_conj_shift, ap, TrigPoly(d, {}), rho)


def jacobi_periodic(v, a, v_per: Sequence[float], E: float, omega: Frequency,
                    rho: float = 0.5) -> TrigPolyMatrix:
    """One period of Jacobi factors with background v_per(j), expanded.

    Site j in {1..q} contributes the factor at x + (j-1) omega with background
    v_per(j); the product runs j = q..1 so that q = 1 with v_per = (0,) is
    exactly jacobi(v, a, E, omega). Degree grows q-fold.
    """
    q = len(v_per)
    if q < 1:
        raise ValueError("period q must be >= 1")
    d = omega.d
    ap = _as_poly(a, d)
    if ap.is_zero():
        raise IdenticallySingular("a is identically zero")
    vp = _as_poly(v, d)
    w = omega.as_array()
    prod: Optional[TrigPolyMatrix] = None
    for j in range(1, q + 1):
        t = _frac((j - 1) * w)
        factor = TrigPolyMatrix.from_entries(
            TrigPoly.constant(d, E - float(v_per[j - 1])) - vp.shift(t),
            -(ap.shift(t - w).conjugate()),
            ap.shift(t),
            TrigPoly(d, {}),
            rho)
        prod = factor if prod is None else factor @ prod
    return prod
