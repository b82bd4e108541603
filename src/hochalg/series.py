"""Truncated exact power series and the Schroeder-number oracles.

All series here are operadic: they start at x (zero constant term) and
keep exact rational coefficients.  The tree series solves

    f = x + f^2 / (1 - f)

(a tree is a leaf, or at least two trees grafted under a new root); the
forest series is the geometric series x/(1-x) composed with it.  The
closed forms involve sqrt(1 - 6x + x^2), which is avoided: multiplying
the functional equation through by 1 - f gives the polynomial recursion
f = x - x f + 2 f^2, solvable degree by degree in rational arithmetic.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction


class PowerSeries:
    """Coefficients c1..cN of a series c1 x + c2 x^2 + ... + cN x^N.

    The constant term is structurally zero, so every PowerSeries is a
    valid right operand for composition.  A read-only value: equal and
    hashed by its coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence) -> None:
        coeffs = tuple(Fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("truncation order must be at least 1")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self.coeffs == other.coeffs if type(other) is PowerSeries else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries(coeffs={self.coeffs!r})"

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int) -> Fraction:
        """Coefficient of x^n, 1 <= n <= order."""
        if not 1 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside 1..{self.order}")
        return self.coeffs[n - 1]

    def __mul__(self, other: PowerSeries) -> PowerSeries:
        """Product truncated at the common order; lowest term is x^2."""
        _check_order(self, other)
        n = self.order
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs, start=1):
            if not a:
                continue
            for j, b in enumerate(other.coeffs, start=1):
                if i + j > n:
                    break
                out[i + j - 1] += a * b
        return PowerSeries(tuple(out))


def _check_order(f: PowerSeries, g: PowerSeries) -> None:
    if f.order != g.order:
        raise ValueError(f"truncation orders differ: {f.order} vs {g.order}")


def from_ints(values: Sequence[int]) -> PowerSeries:
    return PowerSeries(tuple(Fraction(v) for v in values))


def identity_series(order: int) -> PowerSeries:
    """The series x."""
    return PowerSeries((Fraction(1),) + (Fraction(0),) * (order - 1))


def geometric_series(order: int) -> PowerSeries:
    """x/(1-x) = x + x^2 + ... truncated."""
    return PowerSeries((Fraction(1),) * order)


def compose(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Coefficients of f(g(x)) at the common truncation order.

    Both series have zero constant term by construction, which is exactly
    the condition making the composition well defined; mismatched
    truncation orders are rejected.
    """
    _check_order(f, g)
    n = f.order
    out = [Fraction(0)] * n
    power = g  # g^k, starting at k = 1; lowest term x^k, so k stops at n
    for k in range(1, n + 1):
        ck = f.coeffs[k - 1]
        if ck:
            for idx, v in enumerate(power.coeffs):
                out[idx] += ck * v
        if k < n:
            power = power * g
    return PowerSeries(tuple(out))


def tinf_series(order: int) -> PowerSeries:
    """Generating series of planar rooted trees by leaf count.

    Degree-by-degree solution of f = x - x f + 2 f^2; the coefficients are
    the little Schroeder numbers 1, 1, 3, 11, 45, 197, ...
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    c = [Fraction(0)] * (order + 1)
    c[1] = Fraction(1)
    for n in range(2, order + 1):
        conv = sum((c[i] * c[n - i] for i in range(1, n)), Fraction(0))
        c[n] = -c[n - 1] + 2 * conv
    return PowerSeries(tuple(c[1:]))


def hoch_series(order: int) -> PowerSeries:
    """Generating series of forests by leaf count: x/(1-x) composed with
    the tree series; coefficients are the large Schroeder numbers."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    return compose(geometric_series(order), tinf_series(order))


def schroeder(kind: str, n: int) -> int:
    """The n-th little ('little') or large ('large') Schroeder number.

    Computed through the series machinery; the result is an exact integer
    even though intermediate arithmetic is rational.
    """
    if n < 1:
        raise ValueError(f"index must be positive, got {n}")
    if kind == "little":
        value = tinf_series(n).coefficient(n)
    elif kind == "large":
        value = hoch_series(n).coefficient(n)
    else:
        raise ValueError(f"kind must be 'little' or 'large', got {kind!r}")
    if value.denominator != 1:
        raise ArithmeticError(f"Schroeder number came out non-integral: {value}")
    return int(value)


def large_by_convolution(n: int) -> int:
    """Independent route to the n-th large Schroeder number: sum over
    compositions (n1, ..., nk) of n of the product of little Schroeder
    numbers, via the convolution recursion L(n) = S(n) + sum S(j) L(n-j)."""
    little = [0] + [schroeder("little", k) for k in range(1, n + 1)]
    large = [0] * (n + 1)
    for m in range(1, n + 1):
        total = little[m]
        for j in range(1, m):
            total += little[j] * large[m - j]
        large[m] = total
    return large[n]
