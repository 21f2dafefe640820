"""Central factorials, their expansion coefficients, and the moment recurrence.

Everything combinatorial here is computed in exact rational arithmetic
(fractions.Fraction) and only converted to float at evaluation time; the
explicit double-sum formula for the first-kind numbers has large internal
cancellations that would be destroyed by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import TensorConsistencyError

DEFAULT_TABLE_BOUND = 40


def central_factorial(x: float, degree: int) -> float:
    """The central factorial of the given degree at x.

    Degree 0 is 1; degree n >= 1 is x * prod(x + k/2) over k = 2-n, 4-n, ..., n-2.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree == 0:
        return 1.0
    out = float(x)
    for k in range(2 - degree, degree - 1, 2):
        out *= x + k / 2.0
    return out


@lru_cache(maxsize=None)
def central_factorial_coefficients(degree: int) -> tuple[Fraction, ...]:
    """Exact coefficients of x^k, k = 0..degree, in the degree-n central factorial."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree == 0:
        return (Fraction(1),)
    poly = [Fraction(0), Fraction(1)]  # x
    for k in range(2 - degree, degree - 1, 2):
        shift = Fraction(k, 2)
        nxt = [Fraction(0)] * (len(poly) + 1)
        for i, a in enumerate(poly):
            nxt[i + 1] += a
            nxt[i] += a * shift
        poly = nxt
    poly += [Fraction(0)] * (degree + 1 - len(poly))
    return tuple(poly)


def first_kind_explicit(n: int, k: int) -> Fraction:
    """First-kind central factorial number from the explicit double sum.

    Independent of the polynomial-expansion route; the two must agree exactly.
    """
    if k < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    if n < k:
        return Fraction(0)
    if k == 0:
        return Fraction(1 if n == 0 else 0)
    total = Fraction(0)
    for j in range(n - k + 1):
        inner = Fraction(0)
        for m in range(j + 1):
            inner += (-1) ** m * math.comb(j, m) * (Fraction(j, 2) - m) ** (n - k + j)
        total += Fraction((-1) ** j, math.factorial(j) * (n + j)) * math.comb(2 * n - 2 * k, n - k - j) * inner
    return math.comb(2 * n - k, k) * k * total


class CentralFactorialTable:
    """Exact tables of first- and second-kind central factorial numbers.

    first_kind(n, k) are the coefficients expanding central factorials in
    powers; second_kind(n, k) invert that expansion.  Both vanish when the
    arguments have opposite parity.  The exact tables grow fast with the
    degree (MAX_DEGREE takes about 2 s and 36 MB), so larger bounds are
    refused.
    """

    MAX_DEGREE = 100

    def __init__(self, max_degree: int = DEFAULT_TABLE_BOUND):
        if not 0 <= max_degree <= self.MAX_DEGREE:
            raise ValueError(
                f"max_degree must lie in 0..{self.MAX_DEGREE} (CentralFactorialTable.MAX_DEGREE), got {max_degree}"
            )
        self.max_degree = max_degree
        self._first: dict[tuple[int, int], Fraction] = {}
        self._second: dict[tuple[int, int], Fraction] = {}
        for n in range(max_degree + 1):
            coeffs = central_factorial_coefficients(n)
            for k in range(n + 1):
                self._first[(n, k)] = coeffs[k]
        for n in range(max_degree + 1):
            # Solve x^n = sum_k F(n,k) x^[k] by peeling leading coefficients;
            # each central factorial is monic, so back substitution is exact.
            residual = [Fraction(0)] * (n + 1)
            residual[n] = Fraction(1)
            for k in range(n, -1, -1):
                c = residual[k]
                self._second[(n, k)] = c
                if c:
                    coeffs = central_factorial_coefficients(k)
                    for kk in range(k + 1):
                        residual[kk] -= c * coeffs[kk]
            if any(residual):
                raise TensorConsistencyError(f"second-kind back substitution left a residual at degree {n}")

    def _check(self, n: int, k: int) -> None:
        if not (0 <= k <= self.max_degree and 0 <= n <= self.max_degree):
            raise ValueError(f"arguments out of table range 0..{self.max_degree}: ({n}, {k})")

    def first_kind(self, n: int, k: int) -> Fraction:
        self._check(n, k)
        return self._first.get((n, k), Fraction(0))

    def second_kind(self, n: int, k: int) -> Fraction:
        self._check(n, k)
        return self._second.get((n, k), Fraction(0))

    def verify_explicit_formula(self, up_to: int | None = None) -> None:
        """Hard-fails if the explicit first-kind formula disagrees with the expansion."""
        bound = self.max_degree if up_to is None else min(up_to, self.max_degree)
        for n in range(bound + 1):
            for k in range(n + 1):
                if first_kind_explicit(n, k) != self._first.get((n, k), Fraction(0)):
                    raise TensorConsistencyError(
                        f"first-kind mismatch at (n={n}, k={k}): "
                        f"explicit {first_kind_explicit(n, k)} vs expansion {self._first[(n, k)]}"
                    )

    def rows(self):
        """Yield (kind, n, k, value) over both tables, for CSV dumps."""
        for n in range(self.max_degree + 1):
            for k in range(n + 1):
                yield ("f", n, k, self._first.get((n, k), Fraction(0)))
        for n in range(self.max_degree + 1):
            for k in range(n + 1):
                yield ("F", n, k, self._second.get((n, k), Fraction(0)))


@lru_cache(maxsize=None)
def default_table() -> CentralFactorialTable:
    return CentralFactorialTable(DEFAULT_TABLE_BOUND)


def f_first_kind(n: int, k: int) -> Fraction:
    return default_table().first_kind(n, k)


def F_second_kind(n: int, k: int) -> Fraction:
    return default_table().second_kind(n, k)


def second_kind_even_closed_form(n: int, j: int) -> Fraction:
    """Second-kind number at even arguments (n, 2j) from the alternating sum."""
    if n % 2:
        raise ValueError("closed form applies to even first argument only")
    if j == 0:
        return Fraction(1 if n == 0 else 0)
    total = Fraction(0)
    for k in range(1, j + 1):
        total += Fraction((-1) ** (j + k) * k ** n, math.factorial(j + k) * math.factorial(j - k))
    return 2 * total


def q_polynomial(j: int, n: int) -> Fraction:
    """Binomial-sum definition of the equatorial-offset polynomial."""
    if j < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    total = sum(math.comb(2 * n, k) * Fraction(n - k) ** (2 * j) for k in range(2 * n + 1))
    return Fraction(2) ** (j - 2 * n) * total


def q_polynomial_recurrence(j: int, n: int) -> Fraction:
    """Same polynomial built from Q_{j+1}(n) = 2 n^2 Q_j(n) - n(2n-1) Q_j(n-1)."""
    if j == 0:
        return Fraction(1)
    if n == 0:
        # all summands vanish except k=0 with (n-k)=0, so only j=0 survives
        return Fraction(0) if j > 0 else Fraction(1)
    return 2 * n * n * q_polynomial_recurrence(j - 1, n) - n * (2 * n - 1) * q_polynomial_recurrence(j - 1, n - 1)


@lru_cache(maxsize=None)
def recurrence_coefficients(n_photons: int, target_order: int) -> tuple[tuple[int, Fraction], ...]:
    """Expand the order-target_order directional moment of an N-photon state
    over the moments of orders <= N, with exact rational coefficients.

    The expansion applies the even/odd manifold branch of the power
    recurrence iteratively; only orders of matching parity appear.
    """
    if n_photons < 0:
        raise ValueError("photon number must be non-negative")
    if target_order < 0:
        raise ValueError("order must be non-negative")
    table = default_table()
    if n_photons + 2 > table.max_degree:
        raise ValueError(f"photon number {n_photons} exceeds factorial table bound")
    combos: dict[int, dict[int, Fraction]] = {
        r: {r: Fraction(1)} for r in range(min(target_order, n_photons) + 1)
    }
    for order in range(n_photons + 1, target_order + 1):
        mu = order - (n_photons + 1)
        acc: dict[int, Fraction] = {}
        if n_photons % 2 == 0:
            terms = [
                (2 * j - 1 + mu, -(Fraction(4) ** (n_photons // 2 + 1 - j)) * table.first_kind(n_photons + 2, 2 * j))
                for j in range(1, n_photons // 2 + 1)
            ]
        else:
            terms = [
                (2 * j + mu, -(Fraction(4) ** ((n_photons + 1) // 2 - j)) * table.first_kind(n_photons + 2, 2 * j + 1))
                for j in range((n_photons - 1) // 2 + 1)
            ]
        for lower_order, coeff in terms:
            for base, c in combos[lower_order].items():
                acc[base] = acc.get(base, Fraction(0)) + coeff * c
        combos[order] = {b: c for b, c in acc.items() if c}
    final = combos.get(target_order, {target_order: Fraction(1)})
    return tuple(sorted(final.items()))


def profile_recurrence(n_photons: int, lower_values: Mapping[int, float], target_order: int) -> float:
    """Directional moment of order >= N+1 from the moments of order <= N.

    lower_values maps order -> measured/known moment value at a fixed
    direction; order 0 (value 1) is implied.  Raises KeyError when a
    required parity-matched order is missing.
    """
    if target_order <= n_photons:
        raise ValueError("target order must exceed the photon number")
    total = 0.0
    for base, coeff in recurrence_coefficients(n_photons, target_order):
        if base == 0:
            value = 1.0
        elif base in lower_values:
            value = float(lower_values[base])
        else:
            raise KeyError(f"missing required lower-order moment of order {base}")
        total += float(coeff) * value
    return total


@dataclass(frozen=True)
class RecurrenceReport:
    """Outcome of checking the operator power recurrence on a concrete matrix."""

    spectrum_kind: str  # "integer" or "half-integer"
    nu: int
    mu: int
    max_abs_deviation: float
    passed: bool


def operator_recurrence_check(matrix: np.ndarray, nu: int, mu: int = 0, tol: float = 1e-8) -> RecurrenceReport:
    """Verify the power-reduction identity for an operator with integer or
    half-integer spectrum.

    Integer eigenvalues with |lambda| < nu satisfy
        A^(2 nu - 1 + mu) = -sum_{j=1}^{nu-1} f(2 nu, 2 j) A^(2 j - 1 + mu);
    half-integer eigenvalues with |lambda| <= nu - 1/2 satisfy
        A^(2 nu + mu)     = -sum_{j=0}^{nu-1} f(2 nu + 1, 2 j + 1) A^(2 j + mu).

    Only non-negative mu is supported.
    """
    if nu < 1:
        raise ValueError("nu must be positive")
    if mu < 0:
        raise ValueError("mu must be non-negative")
    a = np.asarray(matrix, dtype=complex)
    evals = np.linalg.eigvals(a)
    if np.abs(evals.imag).max(initial=0.0) > 1e-9:
        raise ValueError("matrix must have a real spectrum")
    re = evals.real
    doubled = 2.0 * re
    if np.abs(doubled - np.round(doubled)).max(initial=0.0) > 1e-9:
        raise ValueError("spectrum must consist of integers or half-integers")
    ints = np.round(doubled).astype(int)
    if np.all(ints % 2 == 0):
        kind = "integer"
        if np.abs(re).max(initial=0.0) >= nu:
            raise ValueError(f"integer spectrum requires |eigenvalues| < nu = {nu}")
    elif np.all(ints % 2 == 1):
        kind = "half-integer"
        if np.abs(re).max(initial=0.0) > nu - 0.5:
            raise ValueError(f"half-integer spectrum requires |eigenvalues| <= nu - 1/2 = {nu - 0.5}")
    else:
        raise ValueError("spectrum mixes integers and half-integers")

    table = default_table()
    if kind == "integer":
        lhs = np.linalg.matrix_power(a, 2 * nu - 1 + mu)
        rhs = np.zeros_like(a)
        for j in range(1, nu):
            rhs -= float(table.first_kind(2 * nu, 2 * j)) * np.linalg.matrix_power(a, 2 * j - 1 + mu)
    else:
        lhs = np.linalg.matrix_power(a, 2 * nu + mu)
        rhs = np.zeros_like(a)
        for j in range(nu):
            rhs -= float(table.first_kind(2 * nu + 1, 2 * j + 1)) * np.linalg.matrix_power(a, 2 * j + mu)
    dev = float(np.abs(lhs - rhs).max(initial=0.0))
    scale = max(1.0, float(np.abs(lhs).max(initial=0.0)))
    return RecurrenceReport(kind, nu, mu, dev, dev <= tol * scale)
