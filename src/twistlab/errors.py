"""Exception types shared across the package.

NonGeneric covers every failure of a quantitative genericity gate
(coincident eigenvalues, colliding zero sets, singular pivots); the
sampling verifiers treat it as "redraw this sample".  The remaining
types signal contract violations that callers should see.
"""


class TwistlabError(Exception):
    """Base class for all errors raised by twistlab."""


class NonGeneric(TwistlabError):
    """Input sits too close to a degenerate configuration."""


class SpectraOverlap(NonGeneric):
    """Two spectra that must be disjoint share a value at tolerance."""


class SingularLambda(NonGeneric):
    """The Sylvester solution is not invertible at tolerance."""


class RankUnexpected(TwistlabError):
    """A matrix does not have the numerical nullity the caller required."""


class DegreeZero(TwistlabError):
    """Polynomial is constant or its leading coefficient vanishes."""


class SizeMismatch(TwistlabError):
    """Matrix or operator dimensions are inconsistent."""


class PartitionInvalid(TwistlabError):
    """An eigenvalue or zero-set partition violates its size or disjointness rules."""


class ResidualTooLarge(TwistlabError):
    """A computed object fails its own residual certificate."""


class ZeroCountMismatch(TwistlabError):
    """The determinant zero finder located the wrong number of zeros."""


class SumRuleViolated(TwistlabError):
    """Prescribed zeros do not satisfy the lattice sum congruence."""


class NullityMismatch(TwistlabError):
    """A homogeneous interpolation system is not one dimensional."""


class UnknownMap(TwistlabError):
    """No built-in map or fixture with the requested name."""


class UnknownR(TwistlabError):
    """No built-in R-matrix with the requested name."""


class InputInvalid(TwistlabError, ValueError):
    """An input lies outside what the routine accepts: lattice parameters
    beyond the supported box, or the zero element where a nonzero one is
    needed.  Also a ValueError, so that handlers of ValueError see it."""


class SchemaError(TwistlabError):
    """JSON input does not match the wire schema; message names the field path."""
