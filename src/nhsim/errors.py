"""Exception types shared across the package."""


class NhsimError(Exception):
    """Base class for all package-specific failures."""


class NonFiniteMatrixError(NhsimError):
    """Input matrix contains NaN or Inf entries."""


class EigensolverError(NhsimError):
    """The eigenvalue iteration failed to converge."""


class ClassMismatchError(NhsimError):
    """The matrix does not satisfy the requested similarity-class condition."""


class UnsupportedDimensionError(NhsimError):
    """The requested operation is only implemented for a limited dimension range."""


class FamilyFormatError(NhsimError):
    """A matrix-family document is malformed or inconsistent."""


class FamilyNotInClassError(NhsimError):
    """A matrix family violates the class identities it was declared to satisfy."""
