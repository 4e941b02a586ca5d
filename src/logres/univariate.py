"""Dense univariate polynomials over Fraction, as plain coefficient lists.

Coefficients are stored low degree first.  These helpers back the
characteristic polynomial manipulations and the line-restriction
squarefreeness check; they are not a public polynomial type.  ``as_fraction``
is the one scalar coercion and ``power`` the one square-and-multiply that the
matrix and polynomial types share.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple, Union

UniPoly = List[Fraction]


def as_fraction(value) -> Fraction:
    """An int or Fraction as a Fraction; anything else is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def power(base, exponent: int, multiply):
    """``base`` to a positive ``exponent`` by left-to-right binary powering.

    ``multiply(a, b)`` is the caller's product; each type returns its own one
    for exponent 0.  Exponent k takes floor(log2 k) squarings and
    popcount(k) - 1 products by ``base``, the binary method's count (Knuth,
    TAOCP Vol. 2, 4.6.3).
    """
    if exponent < 1:
        raise ValueError(f"power needs a positive exponent here, got {exponent}")
    result = base
    for bit in bin(exponent)[3:]:
        result = multiply(result, result)
        if bit == "1":
            result = multiply(result, base)
    return result


def uni_trim(p: Sequence[Fraction]) -> UniPoly:
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def uni_degree(p: Sequence[Fraction]) -> int:
    """Degree, with the zero polynomial reported as -1."""
    return len(uni_trim(p)) - 1


def uni_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> UniPoly:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return uni_trim(out)


def uni_scale(a: Sequence[Fraction], s: Fraction) -> UniPoly:
    return uni_trim([c * s for c in a])


def uni_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> UniPoly:
    a, b = uni_trim(a), uni_trim(b)
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return uni_trim(out)


def uni_derivative(p: Sequence[Fraction]) -> UniPoly:
    return uni_trim([c * i for i, c in enumerate(p)][1:])


def uni_divmod(num: Sequence[Fraction], den: Sequence[Fraction]) -> Tuple[UniPoly, UniPoly]:
    num, den = uni_trim(num), uni_trim(den)
    if not den:
        raise ZeroDivisionError("univariate division by zero")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    while len(rem) >= len(den) and rem:
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        rem = uni_trim(rem)
    return uni_trim(quot), rem


def uni_monic(p: Sequence[Fraction]) -> UniPoly:
    p = uni_trim(p)
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def uni_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> UniPoly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    a, b = uni_trim(a), uni_trim(b)
    while b:
        _, r = uni_divmod(a, b)
        a, b = b, r
    return uni_monic(a)


def uni_squarefree_part(p: Sequence[Fraction]) -> UniPoly:
    """The radical p / gcd(p, p'), monic."""
    p = uni_trim(p)
    if uni_degree(p) <= 0:
        return uni_monic(p)
    g = uni_gcd(p, uni_derivative(p))
    q, r = uni_divmod(p, g)
    if r:
        raise ArithmeticError("gcd does not divide its argument; broken invariant")
    return uni_monic(q)


def uni_evaluate(p: Sequence[Union[int, Fraction]], value: Union[int, Fraction]) -> Union[int, Fraction]:
    acc = 0
    for c in reversed(p):
        acc = acc * value + c
    return acc
