"""The built-in divisor catalog.

Frames, weights, and kind annotations are fixed data, not inferred: for each
entry the toral/semisimple/graded splitting of the frame is part of the
definition.  The d4 entry's frame is obtained by differentiating the defining
group action at the identity; the test suite re-derives it independently.
"""

from __future__ import annotations

import re
from typing import List

from .divisor import (
    SEMISIMPLE,
    TORAL,
    WTYPE,
    DivisorError,
    FrameElement,
    FreeDivisor,
    VectorFieldPoly,
)
from .polynomials import WeightedPoly

CATALOG_NAMES = ("cusp", "normal_crossing_2", "d4", "g2", "borel2", "sekiguchi_b5")
# the largest k that ``normal_crossing_<k>`` names; building it grows about as k^4
_NAMED_CROSSING_MAX = 16


def _variables(weights) -> List[WeightedPoly]:
    return [WeightedPoly.variable(i, weights) for i in range(len(weights))]


def _field(*coefficients) -> VectorFieldPoly:
    return VectorFieldPoly(tuple(coefficients))


def plane_curve(p: int, q: int, f: WeightedPoly, name: str = "plane_curve") -> FreeDivisor:
    """Weighted-homogeneous plane curve with frame (Euler field, Hamiltonian field).

    The second frame field is (-df/dy, df/dx); it annihilates f, so the frame
    determinant equals E(f) = n * f.  Requires n - p - q > 0 (the normal
    crossing case lives in its own catalog entry).
    """
    weights = (p, q)
    if f.weights != weights:
        raise DivisorError("defining polynomial must carry weights (p, q)")
    x, y = _variables(weights)
    euler = _field(p * x, q * y)
    degrees = {f.monomial_degree(m) for m in f.terms}
    if len(degrees) != 1:
        raise DivisorError("plane curve polynomial must be weighted homogeneous")
    n = degrees.pop()
    grade = n - p - q
    if grade <= 0:
        raise DivisorError("need degree > p + q; use normal_crossing for the boundary case")
    hamiltonian = _field(-f.partial_derivative(1), f.partial_derivative(0))
    return FreeDivisor(
        name=name,
        variables=("x", "y"),
        weights=weights,
        f=f,
        degree=n,
        frame=(
            FrameElement(TORAL, euler, distinguished=True),
            FrameElement(WTYPE, hamiltonian, grade=grade),
        ),
        positive_combination=(1,),
    )


def cusp() -> FreeDivisor:
    weights = (3, 2)
    x, y = _variables(weights)
    return plane_curve(3, 2, x ** 2 - y ** 3, name="cusp")


def normal_crossing(k: int) -> FreeDivisor:
    """The union of the coordinate hyperplanes in k variables."""
    if k < 1:
        raise DivisorError("normal crossing needs at least one variable")
    weights = (1,) * k
    coords = _variables(weights)
    f = coords[0]
    for c in coords[1:]:
        f = f * c
    zero = WeightedPoly.zero(weights)
    frame = []
    for i in range(k):
        coeffs = tuple(coords[i] if j == i else zero for j in range(k))
        frame.append(FrameElement(TORAL, VectorFieldPoly(coeffs), distinguished=(k == 1)))
    return FreeDivisor(
        name=f"normal_crossing_{k}",
        variables=tuple(f"z{i + 1}" for i in range(k)),
        weights=weights,
        f=f,
        degree=k,
        frame=tuple(frame),
        positive_combination=(1,) * k,
        factors=tuple(coords),
    )


def sekiguchi_b5() -> FreeDivisor:
    weights = (1, 2, 3)
    x, y, z = _variables(weights)
    f = x * y ** 4 + y ** 3 * z + z ** 3
    euler = _field(x, 2 * y, 3 * z)
    v = _field(2 * y, -24 * x * y + 2 * z, -2 * y ** 2 - 32 * x * z)
    w = _field(3 * z, -9 * y ** 2, -12 * y * z)
    return FreeDivisor(
        name="sekiguchi_b5",
        variables=("x", "y", "z"),
        weights=weights,
        f=f,
        degree=9,
        frame=(
            FrameElement(TORAL, euler, distinguished=True),
            FrameElement(WTYPE, v, grade=1),
            FrameElement(WTYPE, w, grade=2),
        ),
        positive_combination=(1,),
    )


def g2() -> FreeDivisor:
    """Discriminant of binary cubics, with its torus + sl2 frame."""
    weights = (3, 3, 3, 3)
    x, y, z, w = _variables(weights)
    f = (
        27 * w ** 2 * x ** 2
        - 18 * w * x * y * z
        + 4 * w * y ** 3
        + 4 * x * z ** 3
        - y ** 2 * z ** 2
    )
    zero = WeightedPoly.zero(weights)
    euler = _field(3 * x, 3 * y, 3 * z, 3 * w)
    v_h = _field(3 * x, y, -z, -3 * w)
    v_f = _field(zero, 3 * x, 2 * y, z)
    v_e = _field(y, 2 * z, 3 * w, zero)
    return FreeDivisor(
        name="g2",
        variables=("x", "y", "z", "w"),
        weights=weights,
        f=f,
        degree=12,
        frame=(
            FrameElement(TORAL, euler, distinguished=True),
            FrameElement(SEMISIMPLE, v_h),
            FrameElement(SEMISIMPLE, v_f),
            FrameElement(SEMISIMPLE, v_e),
        ),
        positive_combination=(1,),
    )


def borel2() -> FreeDivisor:
    """Cone union tangent plane: x * (y^2 - xz), symmetric 2x2 matrices."""
    weights = (2, 2, 2)
    x, y, z = _variables(weights)
    zero = WeightedPoly.zero(weights)
    f = x * (y ** 2 - x * z)
    e1 = _field(2 * x, y, zero)
    e2 = _field(zero, y, 2 * z)
    v = _field(zero, x, 2 * y)
    return FreeDivisor(
        name="borel2",
        variables=("x", "y", "z"),
        weights=weights,
        f=f,
        degree=6,
        frame=(
            FrameElement(TORAL, e1),
            FrameElement(TORAL, e2),
            FrameElement(WTYPE, v, grade=0),
        ),
        positive_combination=(1, 1),
        factors=(x, y ** 2 - x * z),
    )


def d4() -> FreeDivisor:
    """Three binary 2-vectors under independent scalings and a joint SL2.

    The frame fields are the infinitesimal generators of
    (a, b, c, M) * (u, v, w) = (a M u, b M v, c M w): one scaling field per
    vector and the h, e, f fields of the diagonal SL2 action.
    """
    weights = (1,) * 6
    u1, u2, v1, v2, w1, w2 = _variables(weights)
    zero = WeightedPoly.zero(weights)
    f = (u1 * v2 - u2 * v1) * (v1 * w2 - v2 * w1) * (w1 * u2 - w2 * u1)
    e1 = _field(u1, u2, zero, zero, zero, zero)
    e2 = _field(zero, zero, v1, v2, zero, zero)
    e3 = _field(zero, zero, zero, zero, w1, w2)
    y_h = _field(u1, -u2, v1, -v2, w1, -w2)
    y_e = _field(u2, zero, v2, zero, w2, zero)
    y_f = _field(zero, u1, zero, v1, zero, w1)
    return FreeDivisor(
        name="d4",
        variables=("u1", "u2", "v1", "v2", "w1", "w2"),
        weights=weights,
        f=f,
        degree=6,
        frame=(
            FrameElement(TORAL, e1),
            FrameElement(TORAL, e2),
            FrameElement(TORAL, e3),
            FrameElement(SEMISIMPLE, y_h),
            FrameElement(SEMISIMPLE, y_e),
            FrameElement(SEMISIMPLE, y_f),
        ),
        positive_combination=(1, 1, 1),
        factors=(u1 * v2 - u2 * v1, v1 * w2 - v2 * w1, w1 * u2 - w2 * u1),
    )


def catalog(name: str) -> FreeDivisor:
    """Look up a divisor by name; normal crossings take a suffix, e.g.
    ``normal_crossing_3``, up to k = 16 (``normal_crossing(k)`` takes any k)."""
    key = name.strip().lower()
    match = re.fullmatch(r"normal_crossing[_(]?(\d+)\)?", key)
    if match:
        k = int(match.group(1))
        if k > _NAMED_CROSSING_MAX:
            raise DivisorError(f"catalog name {name!r}: normal_crossing_<k> takes k <= {_NAMED_CROSSING_MAX}")
        return normal_crossing(k)
    builders = {
        "cusp": cusp,
        "d4": d4,
        "g2": g2,
        "borel2": borel2,
        "sekiguchi_b5": sekiguchi_b5,
    }
    if key not in builders:
        raise DivisorError(f"unknown catalog divisor {name!r}")
    return builders[key]()
