"""The integer route of ``univariate`` against the ``Fraction`` Euclid it replaced.

The oracles below are the division, monic normalization, gcd and squarefree
part over ``Fraction`` that the pseudo-division and the primitive remainder
sequence replaced, with the squarefreeness loop and the log series as
they read before, all kept here as test-local references.
"""

import math
import random
from fractions import Fraction

from logres import RationalMatrix, WeightedPoly, log_unipotent, squarefree_probable
from logres.linear import inverse
from logres.polynomials import _restrict_to_line
from logres.univariate import (clear_denominators, uni_gcd, uni_mul, uni_primitive, uni_pseudo_divmod,
                               uni_squarefree_part)

from conftest import exp_nilpotent, rand_fraction

# ------------------------------------------------------------------ oracles


def oracle_trim(p):
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def oracle_derivative(p):
    return oracle_trim([c * i for i, c in enumerate(p)][1:])


def oracle_divmod(num, den):
    num, den = oracle_trim(num), oracle_trim(den)
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    while len(rem) >= len(den) and rem:
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        rem = oracle_trim(rem)
    return oracle_trim(quot), rem


def oracle_monic(p):
    p = oracle_trim(p)
    return [c / p[-1] for c in p] if p else []


def oracle_gcd(a, b):
    a, b = oracle_trim(a), oracle_trim(b)
    while b:
        a, b = b, oracle_divmod(a, b)[1]
    return oracle_monic(a)


def oracle_squarefree_part(p):
    p = oracle_trim(p)
    if len(p) <= 1:
        return oracle_monic(p)
    return oracle_monic(oracle_divmod(p, oracle_gcd(p, oracle_derivative(p)))[0])


def normalized(p):
    """An integer polynomial divided by its own leading coefficient."""
    return [Fraction(c, p[-1]) for c in p]


def is_int_list(p):
    return all(type(c) is int for c in p)


# ------------------------------------------------------------ seeded inputs


def random_poly(rng, degree, kind):
    """A nonzero polynomial of exactly ``degree``, with int or Fraction coefficients."""
    if kind == "ints":
        coeffs = [rng.randint(-20, 20) for _ in range(degree)] + [rng.choice((-3, -1, 1, 2, 7))]
    else:
        coeffs = [rand_fraction(rng) if rng.random() < 0.8 else 0 for _ in range(degree)]
        coeffs.append(rng.choice((Fraction(-2, 3), Fraction(1), Fraction(5, 2))))
    return coeffs


def seeded_poly(rng):
    """One of: int or fractional coefficients, a product with repeated
    factors, a common content, or a constant or linear polynomial; degree 0-12.
    Returns the source polynomial and its integer form."""
    kind = rng.choice(("ints", "fractions", "repeated", "content", "low"))
    if kind in ("ints", "fractions"):
        source = random_poly(rng, rng.randint(0, 12), kind)
    elif kind == "repeated":
        source = [1]
        while len(source) < 2 or (len(source) < 10 and rng.random() < 0.6):
            factor = random_poly(rng, rng.randint(1, 2), rng.choice(("ints", "fractions")))
            for _ in range(rng.randint(1, 3)):
                source = uni_mul(source, factor)
    elif kind == "content":
        source = [c * rng.choice((6, -10, 12)) for c in random_poly(rng, rng.randint(0, 12), "ints")]
    else:
        source = random_poly(rng, rng.randint(0, 1), rng.choice(("ints", "fractions")))
    return source, clear_denominators([Fraction(c) for c in source])[1]


def seeded_pair(rng):
    """Two polynomials with a seeded common factor, sources and integer forms."""
    (common, _), (a, _), (b, _) = seeded_poly(rng), seeded_poly(rng), seeded_poly(rng)
    a, b = uni_mul(common, a), uni_mul(common, b)
    return (a, clear_denominators([Fraction(c) for c in a])[1]), (b, clear_denominators([Fraction(c) for c in b])[1])


# -------------------------------------------------------------------- tests


def test_primitive_part_divides_out_the_positive_content():
    rng = random.Random(19)
    for _ in range(300):
        _, ints = seeded_poly(rng)
        primitive = uni_primitive(ints)
        assert is_int_list(primitive) and math.gcd(*primitive) == 1
        assert [c * math.gcd(*ints) for c in primitive] == ints  # the sign is kept
    assert uni_primitive([-6, 4, -2]) == [-3, 2, -1] and uni_primitive([0, 0]) == []


def test_integer_gcd_matches_the_fraction_euclid():
    rng = random.Random(20)
    degrees = set()
    for _ in range(300):
        (a, a_ints), (b, b_ints) = seeded_pair(rng)
        gcd = uni_gcd(a_ints, b_ints)
        assert is_int_list(gcd)
        assert normalized(gcd) == oracle_gcd(a, b)
        degrees.add(len(gcd) - 1)
    assert {0, 1, 2} <= degrees


def test_integer_squarefree_part_matches_the_fraction_radical():
    rng = random.Random(21)
    dropped = 0
    for _ in range(300):
        source, ints = seeded_poly(rng)
        radical = uni_squarefree_part(ints)
        assert is_int_list(radical)
        assert normalized(radical) == oracle_squarefree_part(source)
        dropped += len(radical) < len(ints)
    assert dropped > 30


def test_pseudo_division_scales_the_true_quotient_by_a_positive_integer():
    rng = random.Random(22)
    for _ in range(300):
        (num, num_ints), (den, den_ints) = seeded_poly(rng), seeded_poly(rng)
        if rng.random() < 0.3:
            num_ints = uni_mul(num_ints, den_ints)
        q, r = uni_pseudo_divmod(num_ints, den_ints)
        assert is_int_list(q) and is_int_list(r)
        assert len(r) < len(den_ints)
        total = [0] * max(len(num_ints), len(q) + len(den_ints) - 1, len(r))
        for i, c in enumerate(r):
            total[i] += c
        for i, c in enumerate(uni_mul(q, den_ints)):
            total[i] += c
        k = Fraction(total[len(num_ints) - 1], num_ints[-1])
        assert k.denominator == 1 and k > 0
        assert total == [k.numerator * c for c in num_ints] + [0] * (len(total) - len(num_ints))
        # so r is k times the remainder over Q, with its sign
        true_q, true_r = oracle_divmod(num_ints, den_ints)
        assert (q, r) == ([k * c for c in true_q], [k * c for c in true_r])


def oracle_restrict_to_line(f, base, direction):
    """Coefficients of t -> f(base + t * direction), one linear factor at a time."""
    total = []
    for mono, coeff in f.terms.items():
        term = [Fraction(coeff)]
        for b, d, e in zip(base, direction, mono):
            for _ in range(e):
                term = [x * b + y * d for x, y in zip(term + [0], [0] + term)]
        size = max(len(total), len(term))
        total = [x + y for x, y in zip(total + [0] * (size - len(total)), term + [0] * (size - len(term)))]
    return oracle_trim(total)


def oracle_squarefree_probable(f, trials=8, seed=0):
    """The reducedness loop on the same integer lines, with the Euclidean gcd
    over Fraction: the first full-degree squarefree line decides."""
    full_degree = f.total_degree()
    if full_degree == 0:
        return "probably-squarefree"
    rng = random.Random(seed)
    span = 2 * full_degree ** 2
    repeated = attempts = 0
    while repeated < trials and attempts < 12 * trials:
        attempts += 1
        base = [rng.randint(-span, span) for _ in range(f.nvars)]
        direction = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(f.nvars)]
        restricted = oracle_restrict_to_line(f, base, direction)
        assert _restrict_to_line(f, base, direction) == restricted
        if len(restricted) - 1 != full_degree:
            continue
        if len(oracle_gcd(restricted, oracle_derivative(restricted))) == 1:
            return "probably-squarefree"
        repeated += 1
    return "not-squarefree" if 1 < repeated == trials else "inconclusive"


def test_squarefree_probable_matches_the_fraction_loop():
    w = (1, 1)
    x, y = WeightedPoly.variable(0, w), WeightedPoly.variable(1, w)
    rng = random.Random(23)

    def random_bivariate(degree):
        terms = {(i, degree - i): rand_fraction(rng) for i in range(degree + 1)}
        terms[(degree, 0)] = Fraction(rng.choice((1, -2, 3)))
        return WeightedPoly(w, terms)

    cases = [(x + y) * (x + y) * (x - 2 * y), x ** 6 + y ** 6, x * x * y, (x - y) * (x + 2 * y) * (x + 3 * y)]
    for _ in range(6):
        f, g = random_bivariate(rng.randint(1, 2)), random_bivariate(rng.randint(1, 3))
        cases += [f * g, f * f * g]
    verdicts = set()
    for f in cases:
        for seed in range(5):
            for trials in (1, 4):
                verdict = squarefree_probable(f, trials=trials, seed=seed)
                assert verdict == oracle_squarefree_probable(f, trials=trials, seed=seed)
                verdicts.add(verdict)
    assert verdicts == {"probably-squarefree", "not-squarefree", "inconclusive"}


def oracle_log_unipotent(u):
    m = u.rows
    x = u - RationalMatrix.identity(m)
    total = RationalMatrix.zeros(m, m)
    power = RationalMatrix.identity(m)
    for i in range(1, m + 1):
        power = power * x
        if power.is_zero():
            break
        total = total + Fraction((-1) ** (i + 1), i) * power
    return total


def seeded_nilpotent(rng):
    """A strictly upper triangular m x m matrix, m <= 5, conjugated by a unit
    lower triangular one."""
    m = rng.randint(1, 5)
    n = RationalMatrix([[rand_fraction(rng) if j > i and rng.random() < 0.7 else 0 for j in range(m)]
                        for i in range(m)])
    p = RationalMatrix([[1 if i == j else (rand_fraction(rng) if j < i else 0) for j in range(m)] for i in range(m)])
    return p * n * inverse(p)


def test_exp_and_log_match_the_separate_series():
    rng = random.Random(24)
    nonzero = 0
    for _ in range(120):
        n = seeded_nilpotent(rng)
        u = RationalMatrix.identity(n.rows) + n
        assert log_unipotent(u) == oracle_log_unipotent(u)
        assert exp_nilpotent(log_unipotent(u)) == u
        nonzero += not n.power(2).is_zero()
    assert nonzero > 30
