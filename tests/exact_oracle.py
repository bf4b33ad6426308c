"""Exact reference: the inverse in rational arithmetic, from the matrix alone.

Gauss-Jordan elimination over ``fractions.Fraction`` on the normalized matrix (diagonal b,
corners b_tilde taken at their exact float values, off-diagonals -1).  It uses no closed
form, so it checks the library's closed forms independently of them, with no rounding.
Meant for small orders: the elimination costs O(n^3) rational operations.
"""

from __future__ import annotations

from fractions import Fraction


def exact_matrix(n: int, b: int, b_tilde: float) -> list[list[Fraction]]:
    """The n x n normalized matrix with exact rational entries."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Fraction(b)
        if i + 1 < n:
            m[i][i + 1] = m[i + 1][i] = Fraction(-1)
    m[0][0] = m[n - 1][n - 1] = Fraction(b_tilde)
    return m


def exact_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """The inverse of a nonsingular rational matrix; ZeroDivisionError when it is singular."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        p = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if p is None:
            raise ZeroDivisionError(f"singular matrix: no pivot in column {col + 1}")
        aug[col], aug[p] = aug[p], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f != 0:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def exact_norm(n: int, b: int, b_tilde: float) -> Fraction:
    """The infinity norm (max absolute row sum) of the inverse, as an exact rational."""
    return max(sum(abs(x) for x in row) for row in exact_inverse(exact_matrix(n, b, b_tilde)))
