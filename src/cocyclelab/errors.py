"""Exception types shared across the package."""


class CocycleLabError(Exception):
    """Base class for all errors raised by cocyclelab."""


class ScanTooLarge(CocycleLabError):
    """A computation would exceed its size guard: a lattice scan with
    K**d > 1e9, or a quadrature grid or avalanche ensemble past
    _util.MAX_NODES nodes or matrices."""


class NotCoprime(CocycleLabError):
    """An integer vector expected to have gcd 1 does not."""


class OutsideStrip(CocycleLabError):
    """A complex evaluation point lies outside the declared strip |Im z_j| <= rho."""


class IdenticallySingular(CocycleLabError):
    """An off-diagonal symbol required to be nonzero is identically zero."""


class IdenticallyZero(CocycleLabError):
    """A scalar function required to be nonzero is identically zero."""


class Singular(CocycleLabError):
    """Pointwise renormalization hit a (near-)zero determinant."""


class AllSamplesSingular(CocycleLabError):
    """Every quadrature node underflowed or was singular; no average exists."""


class NotUnimodular(CocycleLabError):
    """A matrix required to have determinant 1 (within tolerance) does not."""


class ChainTooShort(CocycleLabError):
    """An avalanche chain needs at least three matrices."""


class NotDivisible(CocycleLabError):
    """A scale pair required to satisfy N0 | N1 does not."""


class GateFailed(CocycleLabError):
    """A ladder was requested from parameters whose hypothesis gate fails."""


class InconsistentDelta(CocycleLabError):
    """A supplied Diophantine lower bound exceeds the scanned minimum."""


class PreconditionFailed(CocycleLabError):
    """A named precondition inequality was violated; the message names it."""
