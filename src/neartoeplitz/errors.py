"""Exception types shared across the library."""


class SingularMatrixError(ValueError):
    """The corner value lands on (or within tolerance of) a singular corner: ``MatrixConfig``
    raises it when it is built, so no config is singular.  The dense oracle raises it too, when
    a pivot falls below its threshold: the input matrix is numerically singular."""


class DenseSizeError(ValueError):
    """A size cap is exceeded (order 2**14 for n x n work, 2**28 for n-vectors, or 2**20 numbers
    in a CLI report); refused up front."""


class UnsupportedCaseError(ValueError):
    """The requested quantity is only defined for a different (b, b_tilde) regime."""


class DivergenceError(RuntimeError):
    """Fixed-point iteration diverged (successive differences kept growing).

    The partially computed result, when available, is attached as ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
