"""Dense univariate polynomials over the integers, as plain coefficient lists.

Coefficients are stored low degree first; these helpers back the
characteristic polynomials and the line-restriction squarefreeness check.
One pseudo-division by a positive multiplier and ``uni_primitive`` give the
primitive remainder sequence of the gcd; ``uni_add`` and ``uni_mul`` also
build the ``Fraction`` line restrictions, which ``clear_denominators`` turns
into ints.  ``as_fraction`` and ``as_scalar`` are the scalar coercions and
``power`` the one square-and-multiply that the matrix and polynomial types share.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

UniPoly = List[int]


def as_fraction(value) -> Fraction:
    """An int or Fraction as a Fraction; anything else is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def as_scalar(value: Union[int, Fraction]) -> Union[int, Fraction]:
    """An integral rational as an int; any other rational unchanged."""
    return value.numerator if value.denominator == 1 else value


def clear_denominators(values: Sequence[Union[int, Fraction]]) -> Tuple[int, List[int]]:
    """The lcm D of the values' denominators, and the integers D * v in order."""
    scale = math.lcm(*(v.denominator for v in values))
    if scale == 1:
        return 1, [v.numerator for v in values]
    return scale, [v.numerator * (scale // v.denominator) for v in values]


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


def uni_trim(p: Sequence) -> list:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def uni_degree(p: Sequence) -> int:
    """Degree, with the zero polynomial reported as -1."""
    return len(uni_trim(p)) - 1


def uni_add(a: Sequence[Union[int, Fraction]], b: Sequence[Union[int, Fraction]]) -> list:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return uni_trim(out)


def uni_mul(a: Sequence[Union[int, Fraction]], b: Sequence[Union[int, Fraction]]) -> list:
    a, b = uni_trim(a), uni_trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return uni_trim(out)


def uni_derivative(p: Sequence[int]) -> UniPoly:
    return uni_trim([c * i for i, c in enumerate(p)][1:])


def uni_primitive(p: Sequence[int]) -> UniPoly:
    """p divided by the positive gcd of its coefficients, keeping the sign that Sturm counts read."""
    p = uni_trim(p)
    content = math.gcd(*p)
    return [c // content for c in p] if content > 1 else p


def uni_pseudo_divmod(num: Sequence[int], den: Sequence[int]) -> Tuple[UniPoly, UniPoly]:
    """q and r with k * num = q * den + r and deg r < deg den, for an integer
    k > 0: each step scales by |lead(den)|, so r keeps the true remainder's sign."""
    num, den = uni_trim(num), uni_trim(den)
    scale = abs(den[-1])
    quot = [0] * max(len(num) - len(den) + 1, 0)
    rem = num
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        factor = rem[-1] if den[-1] > 0 else -rem[-1]
        if scale != 1:
            quot, rem = [c * scale for c in quot], [c * scale for c in rem]
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        rem = uni_trim(rem)
    return uni_trim(quot), rem


def uni_gcd(a: Sequence[int], b: Sequence[int]) -> UniPoly:
    """A primitive greatest common divisor, by the primitive remainder sequence."""
    a, b = uni_primitive(a), uni_primitive(b)
    while b:
        a, b = b, uni_primitive(uni_pseudo_divmod(a, b)[1])
    return a


def uni_squarefree_part(p: Sequence[int]) -> UniPoly:
    """The primitive radical p / gcd(p, p') of a nonzero p."""
    q, r = uni_pseudo_divmod(p, uni_gcd(p, uni_derivative(p)))
    if r:
        raise ArithmeticError("gcd does not divide its argument; broken invariant")
    return uni_primitive(q)


def uni_evaluate(p: Sequence[Union[int, Fraction]], value: Union[int, Fraction]) -> Union[int, Fraction]:
    acc = 0
    for c in reversed(p):
        acc = acc * value + c
    return acc
