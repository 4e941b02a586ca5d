"""Sparse multivariate polynomials over exact rationals with a weighted grading.

Every polynomial carries a vector of positive integer weights, one per
variable.  The weighted degree of a monomial z^e is sum(w[i] * e[i]); we call
it the E-degree because it is the eigenvalue of the Euler vector field
sum(w[i] * z_i * d/dz_i) on that monomial.  All arithmetic is exact; there is
no floating point anywhere in this package.

The constructor is the one place that checks terms.  Weights and exponents
must be ints (a non-integer raises ValueError; nothing is truncated),
coefficients are coerced by ``as_fraction``, and a zero coefficient is
dropped as it is inserted, so no stored term has coefficient zero.  The
arithmetic hands the constructor raw sums and never cleans terms itself.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import repeat
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .univariate import as_fraction, power, uni_add, uni_degree, uni_derivative, uni_gcd, uni_mul, uni_scale

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

    def degree(self) -> Optional[int]:
        """Maximal E-degree of a term, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.monomial_degree(m) for m in self.terms)

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
            return WeightedPoly.constant(other, self.weights)
        self._check_ring(other)
        return other

    def __add__(self, other) -> "WeightedPoly":
        terms = dict(self.terms)
        for mono, coeff in self._same_ring(other).terms.items():
            terms[mono] = terms[mono] + coeff if mono in terms else coeff
        return WeightedPoly(self.weights, terms)

    def __radd__(self, other) -> "WeightedPoly":
        return self + other

    def __neg__(self) -> "WeightedPoly":
        return WeightedPoly(self.weights, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "WeightedPoly":
        terms = dict(self.terms)
        for mono, coeff in self._same_ring(other).terms.items():
            terms[mono] = terms[mono] - coeff if mono in terms else -coeff
        return WeightedPoly(self.weights, terms)

    def __rsub__(self, other) -> "WeightedPoly":
        return self._same_ring(other) - self

    def __mul__(self, other) -> "WeightedPoly":
        if not isinstance(other, WeightedPoly):
            scalar = as_fraction(other)
            return WeightedPoly(self.weights, {m: c * scalar for m, c in self.terms.items()})
        self._check_ring(other)
        result: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(operator.add, m1, m2))
                result[mono] = result[mono] + c1 * c2 if mono in result else c1 * c2
        return WeightedPoly(self.weights, result)

    def __rmul__(self, other) -> "WeightedPoly":
        return self * other

    def __pow__(self, exponent: int) -> "WeightedPoly":
        return WeightedPoly.constant(1, self.weights) if exponent == 0 else power(self, exponent, operator.mul)

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
        return WeightedPoly(self.weights, terms)

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
        rem = rem - WeightedPoly.monomial(step, num.weights, q) * den
    return WeightedPoly(num.weights, quotient)


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


def monomials_of_degree(weights: Sequence[int], degree: int) -> List[Monomial]:
    """All exponent tuples of exact E-degree ``degree``, in lexicographic order."""
    weights = _checked_weights(weights)
    if degree < 0:
        return []

    def rec(index: int, remaining: int) -> Iterator[Tuple[int, ...]]:
        if index == len(weights):
            if remaining == 0:
                yield ()
            return
        w = weights[index]
        if index == len(weights) - 1:  # the last exponent is forced
            choices = (remaining // w,) if remaining % w == 0 else ()
        else:
            choices = range(remaining // w + 1)
        for e in choices:
            for tail in rec(index + 1, remaining - w * e):
                yield (e,) + tail

    return list(rec(0, degree))


# ------------------------------------------------------------- squarefreeness

PROBABLY_SQUAREFREE = "probably-squarefree"
NOT_SQUAREFREE = "not-squarefree"
INCONCLUSIVE = "inconclusive"


def random_fraction(rng: random.Random, span: int = 9, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def squarefree_probable(f: WeightedPoly, trials: int = 8, seed: int = 0) -> str:
    """Monte Carlo reducedness check by restriction to random rational lines.

    A repeated factor of f survives restriction to every line, so a nontrivial
    gcd(f|L, f|L') on every full-degree line is evidence of a square factor.
    Restrictions that drop below the total degree of f are discarded and
    retried; the verdict is advisory, not a proof.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no squarefreeness verdict")
    full_degree = f.total_degree()
    if full_degree == 0:
        return PROBABLY_SQUAREFREE
    rng = random.Random(seed)
    verdicts: List[bool] = []
    attempts = 0
    while len(verdicts) < trials and attempts < 12 * trials:
        attempts += 1
        base = [random_fraction(rng) for _ in range(f.nvars)]
        direction = [random_fraction(rng) for _ in range(f.nvars)]
        restricted = _restrict_to_line(f, base, direction)
        if uni_degree(restricted) != full_degree:
            continue
        g = uni_gcd(restricted, uni_derivative(restricted))
        verdicts.append(uni_degree(g) > 0)
    if not verdicts:
        return INCONCLUSIVE
    # a genuine square factor survives restriction to every line, so the
    # evidence must persist across all full-degree trials; isolated tangency
    # accidents do not count
    if all(verdicts):
        return NOT_SQUAREFREE if len(verdicts) > 1 else INCONCLUSIVE
    return PROBABLY_SQUAREFREE


def _restrict_to_line(f: WeightedPoly, base: Sequence[Fraction], direction: Sequence[Fraction]) -> List[Fraction]:
    """Coefficients of t -> f(base + t * direction), low degree first."""
    total = [Fraction(0)]
    cache: Dict[Tuple[int, int], List[Fraction]] = {}

    def line_power(i: int, e: int) -> List[Fraction]:
        """(base_i + t * direction_i) ** e, by the binomial theorem."""
        key = (i, e)
        if key not in cache:
            b, d = Fraction(base[i]), Fraction(direction[i])
            cache[key] = [comb(e, k) * b ** (e - k) * d ** k for k in range(e + 1)]
        return cache[key]

    for mono, coeff in f.sorted_terms():
        term = [Fraction(1)]
        for i, e in enumerate(mono):
            if e:
                term = uni_mul(term, line_power(i, e))
        total = uni_add(total, uni_scale(term, coeff))
    return total
