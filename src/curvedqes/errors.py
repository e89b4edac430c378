"""Exception and warning types shared across the package.

potentials.validate_model rejects a bad QES model input with DegenerateCurvature,
SignMismatch, InvalidOrder or InvalidParameter. InvariantError marks a bug, never bad
input; the CLI exits 2 on every ValueError subclass here and on GridTooCoarse.
"""


class DomainError(ValueError):
    """Radius (or arc coordinate) outside the open domain of the deformation."""


class DegenerateCurvature(ValueError):
    """The flat limit lambda = 0 is rejected; the construction needs curvature."""


class SignMismatch(ValueError):
    """The sign of lambda is incompatible with the requested potential family."""


class InvalidParameter(ValueError):
    """Family not 1 or 2, a non-finite model coefficient, L < 0, B_2m <= 0, a bad setting,
    a model past what the float checks and the oracle's eigensolver resolve, or a
    dimension d < 2 or angular momentum l < 0 given to reduce_radial."""


class InvalidOrder(ValueError):
    """Extension order m outside the supported range."""


class NotConstrained(ValueError):
    """Potential coefficients are not in the reduced (compatible) QES form."""


class UnsupportedTerm(ValueError):
    """Superpotential term outside the closed-form integrable basis."""


class PoleAtNode(ZeroDivisionError):
    """The generating function vanishes at the evaluation point."""


class GridTooCoarse(RuntimeError):
    """Eigenvalue error estimate exceeds the requested tolerance."""


class InvariantError(RuntimeError):
    """A closed-form identity that holds for every valid input failed: a bug, not bad input."""


class NonNormalizable(ValueError):
    """The squared wavefunction integral does not converge."""


class TruncationWarning(UserWarning):
    """Non-negligible eigenvector mass near the grid cutoff."""
