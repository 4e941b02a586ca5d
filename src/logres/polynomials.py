"""Sparse multivariate polynomials over exact rationals with a weighted grading.

Every polynomial carries a vector of positive integer weights, one per
variable.  The weighted degree of a monomial z^e is sum(w[i] * e[i]); we call
it the E-degree because it is the eigenvalue of the Euler vector field
sum(w[i] * z_i * d/dz_i) on that monomial.  All arithmetic is exact; there is
no floating point anywhere in this package.

The public constructor checks terms at the boundary, where they come from
outside (user code, ``serialize``, the catalog).  Weights and exponents must
be ints (a non-integer raises ValueError; nothing is truncated),
coefficients are coerced by ``as_fraction``, and a zero coefficient is
dropped as it is inserted, so no stored term has coefficient zero.  The
arithmetic trusts its checked operands: it builds its results through
``WeightedPoly._of``, which only drops the zero sums.  A sum or difference
with a zero operand returns the other operand unchanged (or its negation):
values are immutable, so sharing them is safe.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import repeat
from math import comb
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .univariate import as_fraction, clear_denominators, power, uni_add, uni_degree, uni_derivative, uni_gcd, uni_mul

Monomial = Tuple[int, ...]


class WeightMismatchError(ValueError):
    """Raised when operands live in different weighted polynomial rings."""


class InexactDivisionError(ArithmeticError):
    """Raised when a polynomial quotient would leave a nonzero remainder."""


def _checked_weights(weights: Sequence[int]) -> Tuple[int, ...]:
    """The weights as a tuple; ValueError unless each is a positive Python int."""
    weights = tuple(weights)
    if not all(map(isinstance, weights, repeat(int))) or min(weights, default=1) <= 0:
        raise ValueError(f"variable weights must be positive integers, got {weights}")
    return weights


class WeightedPoly:
    """A sparse polynomial with rational coefficients and graded variables.

    Instances are immutable by convention: no method mutates ``terms`` after
    construction, so values may be shared freely across threads.
    """

    __slots__ = ("weights", "terms")

    def __init__(self, weights: Sequence[int], terms: Optional[Dict[Monomial, Fraction]] = None):
        self.weights = weights = _checked_weights(weights)
        n = len(weights)
        clean: Dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != n or not all(map(isinstance, mono, repeat(int))) or min(mono, default=0) < 0:
                raise ValueError(f"bad monomial {mono} for {n} variables")
            coeff = as_fraction(coeff)
            if coeff:
                clean[mono] = coeff
        self.terms = clean

    @classmethod
    def _of(cls, weights: Tuple[int, ...], terms: Dict[Monomial, Fraction]) -> "WeightedPoly":
        """A polynomial of weights already checked, from the arithmetic's own
        ``Fraction`` sums: the zero ones are dropped, nothing is checked."""
        out = object.__new__(cls)
        out.weights = weights
        out.terms = {mono: coeff for mono, coeff in terms.items() if coeff}
        return out

    def _constant(self, value: Fraction) -> "WeightedPoly":
        """The constant ``value`` of this ring, unchecked."""
        return WeightedPoly._of(self.weights, {(0,) * len(self.weights): value})

    # ---------------------------------------------------------------- builders

    @classmethod
    def zero(cls, weights: Sequence[int]) -> "WeightedPoly":
        return cls(weights, {})

    @classmethod
    def constant(cls, value, weights: Sequence[int]) -> "WeightedPoly":
        return cls(weights, {(0,) * len(weights): value})

    @classmethod
    def variable(cls, index: int, weights: Sequence[int]) -> "WeightedPoly":
        n = len(weights)
        if not 0 <= index < n:
            raise IndexError(f"variable index {index} out of range for {n} variables")
        mono = tuple(1 if i == index else 0 for i in range(n))
        return cls(weights, {mono: Fraction(1)})

    @classmethod
    def monomial(cls, exponents: Sequence[int], weights: Sequence[int], coeff=1) -> "WeightedPoly":
        return cls(weights, {tuple(exponents): as_fraction(coeff)})

    # ----------------------------------------------------------------- queries

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(w * e for w, e in zip(self.weights, mono))

    def total_degree(self) -> Optional[int]:
        """Ordinary (unweighted) total degree, or None for zero."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def as_constant(self) -> Fraction:
        """The value of a constant polynomial; error if nonconstant."""
        if any(any(m) for m in self.terms):
            raise ValueError("polynomial is not constant")
        return self.constant_term()

    def sorted_terms(self) -> List[Tuple[Monomial, Fraction]]:
        """Terms in graded-lexicographic order (degree, then exponents)."""
        return sorted(self.terms.items(), key=lambda t: (self.monomial_degree(t[0]), t[0]))

    def leading_term(self) -> Tuple[Monomial, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=lambda m: (self.monomial_degree(m), m))
        return mono, self.terms[mono]

    # -------------------------------------------------------------- arithmetic

    def _check_ring(self, other: "WeightedPoly") -> None:
        if self.weights != other.weights:
            raise WeightMismatchError(f"weight vectors differ: {self.weights} vs {other.weights}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedPoly):
            return NotImplemented
        return self.weights == other.weights and self.terms == other.terms

    def __hash__(self):
        return hash((self.weights, tuple(self.sorted_terms())))

    def _same_ring(self, other) -> "WeightedPoly":
        """``other`` as a polynomial of this ring; a scalar becomes a constant."""
        if not isinstance(other, WeightedPoly):
            return self._constant(as_fraction(other))
        self._check_ring(other)
        return other

    def __add__(self, other) -> "WeightedPoly":
        other = self._same_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms[mono] + coeff if mono in terms else coeff
        return WeightedPoly._of(self.weights, terms)

    def __radd__(self, other) -> "WeightedPoly":
        return self + other

    def __neg__(self) -> "WeightedPoly":
        return WeightedPoly._of(self.weights, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "WeightedPoly":
        other = self._same_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms[mono] - coeff if mono in terms else -coeff
        return WeightedPoly._of(self.weights, terms)

    def __rsub__(self, other) -> "WeightedPoly":
        return self._same_ring(other) - self

    def __mul__(self, other) -> "WeightedPoly":
        if not isinstance(other, WeightedPoly):
            scalar = as_fraction(other)
            return WeightedPoly._of(self.weights, {m: c * scalar for m, c in self.terms.items()})
        self._check_ring(other)
        result: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(operator.add, m1, m2))
                result[mono] = result[mono] + c1 * c2 if mono in result else c1 * c2
        return WeightedPoly._of(self.weights, result)

    def __rmul__(self, other) -> "WeightedPoly":
        return self * other

    def __pow__(self, exponent: int) -> "WeightedPoly":
        return self._constant(Fraction(1)) if exponent == 0 else power(self, exponent, operator.mul)

    # ----------------------------------------------------------------- calculus

    def partial_derivative(self, var: int) -> "WeightedPoly":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range")
        terms: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[var]
            if e == 0:
                continue
            lowered = tuple(v - 1 if i == var else v for i, v in enumerate(mono))
            terms[lowered] = coeff * e  # lowering var is injective on the terms it keeps
        return WeightedPoly._of(self.weights, terms)

    # --------------------------------------------------------------- evaluation

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point dimension does not match variable count")
        values = [as_fraction(v) for v in point]
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, mono):
                if e:
                    term *= v ** e
            total += term
        return total

    # ------------------------------------------------------------------ display

    def format(self, names: Optional[Sequence[str]] = None) -> str:
        names = list(names) if names is not None else [f"z{i}" for i in range(self.nvars)]
        return terms_text((monomial_text(mono, names), coeff) for mono, coeff in self.sorted_terms())

    def __repr__(self) -> str:
        return f"WeightedPoly({self.format()})"


def exact_divide(num: WeightedPoly, den: WeightedPoly) -> WeightedPoly:
    """Return q with q * den == num, raising InexactDivisionError otherwise."""
    num._check_ring(den)
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    quotient: Dict[Monomial, Fraction] = {}
    rem = num
    den_mono, den_coeff = den.leading_term()
    while rem.terms:
        mono, coeff = rem.leading_term()
        step = tuple(a - b for a, b in zip(mono, den_mono))
        if any(e < 0 for e in step):
            raise InexactDivisionError("division leaves a nonzero remainder")
        q = coeff / den_coeff
        quotient[step] = q  # the leading monomial of rem falls at every step
        rem = rem - WeightedPoly._of(num.weights, {step: q}) * den
    return WeightedPoly._of(num.weights, quotient)


def monomial_text(mono: Monomial, names: Sequence[str]) -> str:
    """Render z^a as "x^2*y"; the constant monomial reads "1"."""
    factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e]
    return "*".join(factors) if factors else "1"


def terms_text(terms: Iterable[Tuple[str, Fraction]]) -> str:
    """Join (monomial text, coefficient) pairs as "2*x^2 - y + 1/2"; no terms read "0"."""
    chunks: List[str] = []
    for body, coeff in terms:
        if body == "1":
            chunks.append(str(coeff))
        elif coeff == 1:
            chunks.append(body)
        elif coeff == -1:
            chunks.append(f"-{body}")
        else:
            chunks.append(f"{coeff}*{body}")
    if not chunks:
        return "0"
    text = chunks[0]
    for chunk in chunks[1:]:
        text += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
    return text


def monomials_of_degree(weights: Sequence[int], degree: int,
                        keep: Callable[[Monomial], bool] = lambda prefix: True) -> List[Monomial]:
    """All exponent tuples of exact E-degree ``degree``, in lexicographic order;
    ``keep`` is asked about each prefix as it grows, and one it rejects is not extended."""
    weights = _checked_weights(weights)
    if degree < 0:
        return []

    def rec(prefix: Monomial, remaining: int) -> Iterator[Monomial]:
        index = len(prefix)
        if index == len(weights):
            if remaining == 0:
                yield prefix
            return
        w = weights[index]
        if index == len(weights) - 1:  # the last exponent is forced
            choices = (remaining // w,) if remaining % w == 0 else ()
        else:
            choices = range(remaining // w + 1)
        for e in choices:
            if keep(head := prefix + (e,)):
                yield from rec(head, remaining - w * e)

    return list(rec((), degree))


# ------------------------------------------------------------- squarefreeness

PROBABLY_SQUAREFREE = "probably-squarefree"
NOT_SQUAREFREE = "not-squarefree"
INCONCLUSIVE = "inconclusive"


def squarefree_probable(f: WeightedPoly, trials: int = 8, seed: int = 0) -> str:
    """Monte Carlo reducedness check by restriction to random integer lines.

    A squarefree restriction of full degree D proves f squarefree, so the
    first such line decides.  Base entries come from [-2D^2, 2D^2], where the
    restriction's discriminant, of degree <= D(2D - 2) in the base point,
    vanishes with probability below 1/2 (Schwartz, J. ACM 27, 1980); nonzero
    direction entries in [-9, 9] keep the degree on coordinate hyperplanes.
    A repeated root on ``trials`` > 1 full-degree lines, as a square factor
    leaves on every line, gives not-squarefree; anything else within
    12 * trials lines is inconclusive.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no squarefreeness verdict")
    full_degree = f.total_degree()
    if full_degree == 0:
        return PROBABLY_SQUAREFREE
    rng = random.Random(seed)
    span = 2 * full_degree ** 2
    repeated = attempts = 0
    while repeated < trials and attempts < 12 * trials:
        attempts += 1
        base = [rng.randint(-span, span) for _ in range(f.nvars)]
        direction = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(f.nvars)]
        restricted = _restrict_to_line(f, base, direction)
        if uni_degree(restricted) != full_degree:
            continue
        _, restricted = clear_denominators(restricted)
        if uni_degree(uni_gcd(restricted, uni_derivative(restricted))) == 0:
            return PROBABLY_SQUAREFREE
        repeated += 1
    return NOT_SQUAREFREE if 1 < repeated == trials else INCONCLUSIVE


def _restrict_to_line(f: WeightedPoly, base: Sequence[Union[int, Fraction]],
                      direction: Sequence[Union[int, Fraction]]) -> list:
    """Coefficients of t -> f(base + t * direction), low degree first."""
    total: list = []
    cache: Dict[Tuple[int, int], list] = {}

    def line_power(i: int, e: int) -> list:
        """(base_i + t * direction_i) ** e, by the binomial theorem."""
        key = (i, e)
        if key not in cache:
            b, d = base[i], direction[i]
            cache[key] = [comb(e, k) * b ** (e - k) * d ** k for k in range(e + 1)]
        return cache[key]

    for mono, coeff in f.terms.items():
        term = [coeff]
        for i, e in enumerate(mono):
            if e:
                term = uni_mul(term, line_power(i, e))
        total = uni_add(total, term)
    return total
