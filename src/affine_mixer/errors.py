"""Exception types shared across the package.

Every error carries a stable ``kind`` string so command line tools can
emit machine readable failure records without inspecting class names.
"""

from __future__ import annotations


class AffineMixerError(Exception):
    """Base class for all domain errors raised by this package."""

    kind = "Error"


class NonConvergence(AffineMixerError):
    """A numeric root refinement failed to meet its residual tolerance."""

    kind = "NonConvergence"


class SingularMatrix(AffineMixerError):
    """An operation required det(A) != 0 and the matrix is singular."""

    kind = "SingularMatrix"


class OrderMismatch(AffineMixerError):
    """A supplied eigenvalue ordering is not a permutation of the k roots."""

    kind = "OrderMismatch"


class InvariantSubspace(AffineMixerError):
    """The support differences generate a proper A-invariant subspace."""

    kind = "InvariantSubspace"


class StateSpaceTooLarge(AffineMixerError):
    """p**k exceeds the configured dense state cap."""

    kind = "StateSpaceTooLarge"


class ModulusNotCoprime(AffineMixerError):
    """gcd(det(A), p) != 1, so the recursion is not a bijection mod p."""

    kind = "ModulusNotCoprime"


class ZeroFrequency(AffineMixerError):
    """A frequency vector required to be nonzero reduced to 0 mod p."""

    kind = "ZeroFrequency"


class FactorNonpositive(AffineMixerError):
    """A certificate factor 1 - rho*norm^(2j)/p^2 dropped to <= 0."""

    kind = "FactorNonpositive"


class NoTorsion(AffineMixerError):
    """No power of the transpose matrix fixes a nonzero integer vector."""

    kind = "NoTorsion"


class GammaTooLarge(AffineMixerError):
    """The torsion certificate constant gamma is not below p**2."""

    kind = "GammaTooLarge"


class OutOfRange(AffineMixerError):
    """A numerator or modulus is outside the documented domain, or a root
    or coefficient of a matrix's polynomial is past float range."""

    kind = "OutOfRange"


class ConfigInvalid(AffineMixerError):
    """An experiment configuration failed validation."""

    kind = "ConfigInvalid"


class InsufficientData(AffineMixerError):
    """Too few usable rows to fit the requested growth model."""

    kind = "InsufficientData"
