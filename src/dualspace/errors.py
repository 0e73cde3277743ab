"""Exception types shared across the library."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation.

    Examples: a subspace that is not space-like where one is required, a
    non-orthonormal lattice passed to the closed-form cut radius, or an
    (n, m) pair outside the catalog.
    """


class NumericalError(ArithmeticError):
    """A computation cannot be carried out to the required accuracy.

    Examples: the QR factorization of a (numerically) singular matrix, whose
    triangular factor has a vanishing diagonal entry, or a coset
    so close to the boundary that artanh would destroy all precision.
    """
