import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from logres import (
    InexactDivisionError,
    VectorFieldPoly,
    WeightedPoly,
    WeightMismatchError,
    catalog,
    exact_divide,
    monomials_of_degree,
    squarefree_probable,
)

from conftest import degree

W32 = (3, 2)  # weights of the cusp ring
W123 = (1, 2, 3)


def p(weights, terms):
    return WeightedPoly(weights, {tuple(k): Fraction(v) for k, v in terms.items()})


def test_add_cancels_terms():
    a = p(W32, {(2, 0): 1, (0, 3): -1})  # x^2 - y^3
    b = p(W32, {(0, 3): 1})
    assert a + b == p(W32, {(2, 0): 1})


def test_product_degree_is_additive():
    x = WeightedPoly.variable(0, W32)
    y = WeightedPoly.variable(1, W32)
    xy = x * y
    assert xy == p(W32, {(1, 1): 1})
    assert degree(xy) == 5


def test_multiplicative_identity():
    a = p(W32, {(2, 0): 1, (0, 3): -1})
    one = WeightedPoly.constant(1, W32)
    assert a * one == a


def test_weight_mismatch_rejected():
    a = WeightedPoly.variable(0, W32)
    b = WeightedPoly.variable(0, (1, 1))
    with pytest.raises(WeightMismatchError):
        a + b


def test_partial_derivatives():
    f = p(W32, {(2, 0): 1, (0, 3): -1})
    assert f.partial_derivative(0) == p(W32, {(1, 0): 2})
    assert f.partial_derivative(1) == p(W32, {(0, 2): -3})


def test_partial_derivative_three_variables():
    # hand differentiation of x*y^4 + y^3*z + z^3 in z
    f = p(W123, {(1, 4, 0): 1, (0, 3, 1): 1, (0, 0, 3): 1})
    assert f.partial_derivative(2) == p(W123, {(0, 3, 0): 1, (0, 0, 2): 3})


def test_exact_divide_cusp_determinant():
    f = p(W32, {(2, 0): 1, (0, 3): -1})
    assert exact_divide(6 * f, f) == WeightedPoly.constant(6, W32)
    # multiply-back check
    assert exact_divide(6 * f, f) * f == 6 * f


def test_exact_divide_variable():
    x = WeightedPoly.variable(0, W32)
    assert exact_divide(x * x, x) == x


def test_inexact_division_raises():
    x = WeightedPoly.variable(0, W32)
    y = WeightedPoly.variable(1, W32)
    with pytest.raises(InexactDivisionError):
        exact_divide(x + y, x)


def test_monomials_of_degree():
    assert monomials_of_degree(W32, 6) == [(0, 3), (2, 0)]
    assert monomials_of_degree(W32, 1) == []
    assert monomials_of_degree((1,), 4) == [(4,)]
    assert monomials_of_degree((), 0) == [()] and monomials_of_degree((), 2) == []
    for weights in ((1, 1), (2, 3), (3, 1, 2), (2, 2, 4)):
        for degree in range(13):
            brute = [mono for mono in itertools.product(range(degree + 1), repeat=len(weights))
                     if sum(w * e for w, e in zip(weights, mono)) == degree]
            assert monomials_of_degree(weights, degree) == brute


def test_monomials_of_degree_extends_only_the_prefixes_keep_accepts():
    """Pruning by characters, as the moduli solve does: <chi, a> is final at
    chi's last nonzero entry, and there it must lie in an admitted set.  The
    pruned enumeration is the full one filtered by every character, in the
    same order, on random characters with negative entries and on d4's, whose
    h is (1, -1, 1, -1, 1, -1)."""
    rng = random.Random("monomials-keep")
    d4 = catalog("d4")
    cases = [(d4.weights, [chi for _, chi in d4.diagonal_characters])] * 40
    for _ in range(160):
        n = rng.randint(1, 4)
        chis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        cases.append((tuple(rng.randint(1, 3) for _ in range(n)), [chi for chi in chis if any(chi)]))
    pruned_some = 0
    for weights, chis in cases:
        degree = rng.randint(0, 8)
        characters = [(chi, max(i for i, c in enumerate(chi) if c) + 1,
                       set(rng.sample(range(-6, 7), rng.randint(1, 5)))) for chi in chis]

        def keep(prefix):
            return all(sum(map(mul, chi, prefix)) in allowed for chi, end, allowed in characters if end == len(prefix))

        full = monomials_of_degree(weights, degree)
        kept = [mono for mono in full if all(sum(map(mul, chi, mono)) in allowed for chi, _, allowed in characters)]
        assert monomials_of_degree(weights, degree, keep) == kept
        pruned_some += len(kept) < len(full)
    assert pruned_some > 50


def test_monomials_of_degree_asks_keep_only_about_the_prefixes_it_extends():
    # a prefix keep rejects is not extended, so none of its extensions is asked about
    asked = []

    def keep(prefix):
        asked.append(prefix)
        return prefix[0] != 1

    assert monomials_of_degree((1, 1, 1), 2, keep) == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (2, 0, 0)]
    assert not any(prefix[0] == 1 and len(prefix) > 1 for prefix in asked)
    assert monomials_of_degree((1, 1, 1), 2) == monomials_of_degree((1, 1, 1), 2, lambda prefix: True)


@pytest.mark.parametrize("weights", [(1.5, 2), (0, 1), (-1, 1)])
def test_monomials_of_degree_rejects_weights_the_ring_rejects(weights):
    # not truncated to (1, 2), no ZeroDivisionError, no silent empty list
    with pytest.raises(ValueError, match="variable weights must be positive integers"):
        monomials_of_degree(weights, 3)


def test_monomials_of_degree_takes_a_bool_weight_as_the_ring_does():
    assert monomials_of_degree((True, 2), 3) == monomials_of_degree((1, 2), 3) == [(1, 1), (3, 0)]


def test_squarefree_cusp():
    f = p(W32, {(2, 0): 1, (0, 3): -1})
    assert squarefree_probable(f, trials=8, seed=0) == "probably-squarefree"


def test_squarefree_detects_square():
    f = p((1, 1), {(2, 0): 1, (1, 1): -2, (0, 2): 1})  # (x - y)^2
    assert squarefree_probable(f, trials=8, seed=0) == "not-squarefree"


def test_squarefree_borel_polynomial():
    f = p((2, 2, 2), {(1, 2, 0): 1, (2, 0, 1): -1})  # x*(y^2 - x*z)
    assert squarefree_probable(f, trials=8, seed=0) == "probably-squarefree"


def test_squarefree_deterministic_in_seed():
    f = p(W32, {(2, 0): 1, (0, 3): -1})
    runs = {squarefree_probable(f, trials=8, seed=7) for _ in range(3)}
    assert len(runs) == 1


# ----------------------------------------------------------- property tests

small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def polys(draw, weights=(2, 3)):
    nterms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(nterms):
        mono = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in weights)
        terms[mono] = draw(small_fraction)
    return WeightedPoly(weights, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_exact_divide_roundtrip(a, b):
    if b.is_zero():
        return
    assert exact_divide(a * b, b) == a


# --------------------------------------------------- the one cleaning pass

@pytest.mark.parametrize("weights, terms", [
    ((1, 1), {(1.5, 0): 1}),
    ((1, 1), {("2", 0): 1}),
    ((1.5, 2), None),
    ((1, 1), {(Fraction(1), 0): 1}),
    ((1, 1), {(1.5, 0): 1, (1, 0): 2}),  # not truncated to 1 and merged into 3*z0
    ((1, 1), {(1,): 1}),
    ((1, 1), {(1, -1): 1}),
])
def test_non_integer_exponents_and_weights_are_rejected(weights, terms):
    with pytest.raises(ValueError):
        WeightedPoly(weights, terms)


def test_bool_exponents_and_weights_pass_as_ints():
    assert WeightedPoly((1, True), {(True, 0): 3}) == p((1, 1), {(1, 0): 3})


def test_difference_constructs_one_polynomial(monkeypatch):
    # the arithmetic builds its results through _of, and builds one per result
    a = p(W32, {(2, 0): 1, (0, 3): -1, (1, 1): 2})
    b = p(W32, {(0, 3): -1, (0, 1): 5})
    calls = []
    init, of = WeightedPoly.__init__, WeightedPoly._of

    def counting_init(self, *args, **kwargs):
        calls.append("__init__")
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeightedPoly, "__init__", counting_init)
    monkeypatch.setattr(WeightedPoly, "_of", classmethod(lambda cls, *args: calls.append("_of") or of(*args)))
    difference = a - b
    assert calls == ["_of"]
    assert difference.terms == {(2, 0): 1, (1, 1): 2, (0, 1): -5}


W3 = (1, 2, 1)


@st.composite
def cancelling_pairs(draw):
    """Two polynomials whose terms overlap, some with opposite coefficients."""
    monos = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in W3))
    p_terms = draw(st.dictionaries(monos, small_fraction, max_size=5))
    q_terms = draw(st.dictionaries(monos, small_fraction, max_size=5))
    for mono, coeff in p_terms.items():
        if draw(st.booleans()):
            q_terms[mono] = -coeff
    return WeightedPoly(W3, p_terms), WeightedPoly(W3, q_terms)


def reference_product(a, b):
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def assert_clean(poly):
    for mono, coeff in poly.terms.items():
        assert type(coeff) is Fraction and coeff != 0
        assert len(mono) == len(W3) and all(type(e) is int and e >= 0 for e in mono)


@seed(14)
@settings(max_examples=150, deadline=None)
@given(cancelling_pairs())
def test_arithmetic_results_hold_no_zero_coefficient(pair):
    a, b = pair
    for result in (a + b, a - b, b - a, a * b, a * 0, 2 - a, a + 1, a.partial_derivative(1)):
        assert_clean(result)
    assert (a - a).is_zero()
    assert (a + b) - b == a
    assert (a * b).terms == reference_product(a, b)
    assert (a + b).terms == {m: c for m in set(a.terms) | set(b.terms)
                             if (c := a.terms.get(m, 0) + b.terms.get(m, 0))}


def random_poly(rng, nterms, cancel=None):
    """A polynomial over W3 with ``nterms`` drawn terms and denominators 1, 2, 3 and 7; with
    ``cancel``, about half of its terms are first set to the negated terms of that one."""
    terms = {mono: -coeff for mono, coeff in (cancel.terms.items() if cancel else ()) if rng.random() < 0.5}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, 2) for _ in W3)
        terms[mono] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2, 3, 7)))
    return WeightedPoly(W3, terms)


def trusted_results(a, b, zero, field):
    """Every arithmetic path on checked operands; b is nonzero."""
    return [a + b, a - b, b - a, -a, a + zero, zero + a, a - zero, zero - a, a - a, a + 1, 2 - a,
            a * Fraction(-3, 7), a * 2, a * 0, 3 * a, a * b, a ** 0, a ** 1, a ** 3,
            *(a.partial_derivative(i) for i in range(len(W3))),
            exact_divide(a * b, b), exact_divide(b, b), field.apply(a), field.apply(zero)]


@pytest.mark.parametrize("seed_", range(12))
def test_arithmetic_trusts_its_own_results(monkeypatch, seed_):
    rng = random.Random(seed_)
    a = random_poly(rng, rng.randint(0, 5))
    b = random_poly(rng, rng.randint(1, 5), cancel=a)
    zero = WeightedPoly.zero(W3)
    field = VectorFieldPoly(tuple(random_poly(rng, 3) for _ in W3))
    results = trusted_results(a, b, zero, field)
    for result in results:
        # what the checked constructor makes of the same terms, with no zero and no non-Fraction
        assert result == WeightedPoly(result.weights, result.terms)
        assert all(type(coeff) is Fraction and coeff != 0 for coeff in result.terms.values())
    # a zero operand returns the other operand itself
    assert a + zero is a and a - zero is a and zero + b is b

    def refuse(self, *args, **kwargs):
        raise AssertionError("arithmetic revalidated its own result")

    monkeypatch.setattr(WeightedPoly, "__init__", refuse)
    assert trusted_results(a, b, zero, field) == results


@pytest.mark.parametrize("coeff", [1.5, "2"])
def test_the_constructor_rejects_a_coefficient_that_is_not_rational(coeff):
    with pytest.raises(TypeError):
        WeightedPoly(W3, {(1, 0, 0): coeff})


def test_squarefree_single_trial_is_inconclusive():
    # one bad line is not persistence evidence on its own
    f = p((1, 1), {(2, 0): 1})  # x^2
    assert squarefree_probable(f, trials=1, seed=0) == "inconclusive"
    assert squarefree_probable(f, trials=8, seed=0) == "not-squarefree"


def test_line_restriction_of_a_high_power():
    # line powers are built without recursion, so no stack depth grows with the exponent
    from logres.polynomials import _restrict_to_line
    from logres.univariate import uni_evaluate

    f = WeightedPoly((1, 1), {(1500, 0): 1, (0, 1500): 1})
    base, direction = [Fraction(3, 4), Fraction(-2)], [Fraction(1, 3), Fraction(5, 2)]
    restricted = _restrict_to_line(f, base, direction)
    assert len(restricted) == 1501
    t = Fraction(2)
    assert uni_evaluate(restricted, t) == f.evaluate([b + t * d for b, d in zip(base, direction)])


def test_squarefree_of_a_high_power():
    f = WeightedPoly((1, 1), {(1500, 0): 1})
    assert squarefree_probable(f, trials=2, seed=0) == "not-squarefree"
