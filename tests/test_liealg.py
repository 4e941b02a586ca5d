import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logres import (
    RationalMatrix,
    ResidueData,
    ad_operator,
    commutator,
    is_nilpotent,
    is_semisimple,
    is_unipotent,
    jordan_chevalley,
    log_unipotent,
    validate_residue,
)
from logres.linear import IntegerRows, integer_eigenvalues, inverse, rref

from conftest import (CHI_E, CHI_F, CHI_H, E12, E21, IDENT2, centralizer_algebra, conjugated, diag, exp_nilpotent,
                      fraction_conjugated, rand_fraction, trace)


def test_jordan_block_additive():
    a = RationalMatrix([[1, 1], [0, 1]])
    d = jordan_chevalley(a)
    assert d.semisimple == IDENT2
    assert d.nilpotent == E12


def test_already_semisimple():
    a = RationalMatrix([[0, 1], [1, 0]])
    d = jordan_chevalley(a)
    assert d.semisimple == a
    assert d.nilpotent.is_zero()


def test_distinct_eigenvalue_triangular_is_semisimple():
    a = RationalMatrix([[1, 1], [0, 2]])
    # (A - I)(A - 2I) = 0, so the minimal polynomial is squarefree
    product = (a - IDENT2) * (a - 2 * IDENT2)
    assert product.is_zero()
    d = jordan_chevalley(a)
    assert d.semisimple == a
    assert d.nilpotent.is_zero()


def test_semisimplicity_tests():
    assert is_nilpotent(E12)
    assert is_semisimple(diag(0, 1))
    assert is_unipotent(RationalMatrix([[1, 1], [0, 1]]))
    assert not is_semisimple(RationalMatrix([[1, 1], [0, 1]]))


def test_ad_operator_eigenvalues_brute_force():
    ad = ad_operator(diag(0, 1))
    # columns are [D, E_rc]_c over the four units; eigenvalues s_r - s_c
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    expected = {(0, 0): 0, (0, 1): -1, (1, 0): 1, (1, 1): 0}
    for col, (r, c) in enumerate(units):
        for row in range(4):
            want = expected[(r, c)] if row == col else 0
            assert ad[row, col] == want


def test_ad_operator_degenerate_cases():
    assert ad_operator(RationalMatrix.zeros(2, 2)).is_zero()
    assert ad_operator(IDENT2).is_zero()


def test_centralizer_of_diagonal():
    dim, basis = centralizer_algebra([diag(0, 1)])
    assert dim == 2
    for b in basis:
        assert commutator(b, diag(0, 1)).is_zero()


def test_centralizer_of_nothing_is_everything():
    dim, _ = centralizer_algebra([], size=2)
    assert dim == 4


def test_centralizer_of_sl2_is_scalars():
    dim, basis = centralizer_algebra([CHI_H, CHI_E, CHI_F])
    assert dim == 1
    b = basis[0]
    assert b[0, 0] == b[1, 1] and b[0, 1] == 0 and b[1, 0] == 0


def test_validate_residue_commuting_diagonals():
    r = ResidueData(s_list=(diag(0, 1), diag(1, 0)), positive_combination=(1, 1))
    assert validate_residue(r).ok


def test_validate_residue_rejects_non_semisimple():
    r = ResidueData(s_list=(diag(0, 1), E12), positive_combination=(1, 1))
    report = validate_residue(r)
    assert not report.ok
    assert "semisimple" in report.message


def test_validate_residue_rejects_noncommuting():
    r = ResidueData(s_list=(diag(0, 1), RationalMatrix([[0, 1], [1, 0]])), positive_combination=(1, 1))
    report = validate_residue(r)
    assert not report.ok


def test_validate_residue_checks_each_distinct_value_once(monkeypatch):
    from logres import liealg

    calls, brackets = [], []
    semisimple, bracket = liealg.is_semisimple, liealg.commutator
    monkeypatch.setattr(liealg, "is_semisimple", lambda s: calls.append(s) or semisimple(s))
    monkeypatch.setattr(liealg, "commutator", lambda a, b: brackets.append((a, b)) or bracket(a, b))
    r = ResidueData(s_list=(diag(0, 1),) * 5, positive_combination=(1,) * 5)
    assert validate_residue(r).ok
    assert calls == [diag(0, 1)]
    assert brackets == []


def test_validate_residue_names_the_first_failing_slot():
    rotation = RationalMatrix([[0, 1], [1, 0]])
    cases = [
        ((diag(0, 1), E12, E12), "S_2 is not semisimple"),
        ((diag(0, 1), diag(0, 1), rotation, rotation), "S_1 and S_3 do not commute"),
        ((IDENT2, diag(0, 1), IDENT2, rotation), "S_2 and S_4 do not commute"),
    ]
    for s_list, message in cases:
        report = validate_residue(ResidueData(s_list=s_list, positive_combination=(1,) * len(s_list)))
        assert report.message == message


def test_validate_residue_names_the_first_slot_not_centralizing_chi():
    r = ResidueData(s_list=(IDENT2, diag(0, 1), diag(0, 1)), positive_combination=(1, 1, 1), chi=(CHI_E,))
    assert validate_residue(r).message == "S_2 does not centralize chi_1"


def test_validate_residue_sl2_triple():
    # chi values bracketing oppositely to frame constants: with frame
    # constants [h,f]=2f, [h,e]=-2e, [f,e]=h the triple (-h, e, f) passes
    constants = {
        (0, 1): (Fraction(0), Fraction(2), Fraction(0)),   # [Yh, Yf] = 2 Yf
        (0, 2): (Fraction(0), Fraction(0), Fraction(-2)),  # [Yh, Ye] = -2 Ye
        (1, 2): (Fraction(1), Fraction(0), Fraction(0)),   # [Yf, Ye] = Yh
    }
    scalar = diag(3, 3)
    good = ResidueData(s_list=(scalar,), positive_combination=(1,), chi=(CHI_H, CHI_E, CHI_F))
    assert validate_residue(good, s_constants=constants).ok
    # commutator-convention triple (h, e, f) fails under the same constants
    h = RationalMatrix([[1, 0], [0, -1]])
    bad = ResidueData(s_list=(scalar,), positive_combination=(1,), chi=(h, CHI_E, CHI_F))
    assert not validate_residue(bad, s_constants=constants).ok


def test_jc_multiplicative_requires_invertible():
    with pytest.raises(ValueError):
        jordan_chevalley(diag(0, 1), mode="multiplicative")


def test_jc_idempotence():
    s = diag(2, 3)
    d = jordan_chevalley(s)
    assert d.semisimple == s and d.nilpotent.is_zero()
    n = E21
    d = jordan_chevalley(n)
    assert d.semisimple.is_zero() and d.nilpotent == n


def test_jc_uniqueness_grid_2x2():
    # brute force over nilpotent 2x2 candidates with small integer entries:
    # the returned decomposition is the only commuting semisimple+nilpotent split
    a = RationalMatrix([[3, 1], [0, 3]])
    result = jordan_chevalley(a)
    found = []
    span = range(-3, 4)
    for p in span:
        for q in span:
            for r in span:
                n = RationalMatrix([[p, q], [r, -p]])
                if not is_nilpotent(n):
                    continue
                s = a - n
                if commutator(s, n).is_zero() and is_semisimple(s):
                    found.append((s, n))
    assert found == [(result.semisimple, result.nilpotent)]


def test_jc_multiplicative_distinct_diagonal():
    # with distinct diagonal s, the only commuting upper unipotent is the identity
    s = diag(2, 5)
    u = IDENT2
    d = jordan_chevalley(s * u, mode="multiplicative")
    assert d.semisimple == s and d.unipotent == u


def test_jc_multiplicative_repeated_diagonal():
    s = diag(2, 2)
    u = RationalMatrix([[1, 1], [0, 1]])
    d = jordan_chevalley(s * u, mode="multiplicative")
    assert d.semisimple == s and d.unipotent == u


def multiplicative_split(m):
    """The jordan CLI's multiplicative path: S and U with m = S U, and log U."""
    decomposition = jordan_chevalley(m, mode="multiplicative")
    return decomposition.semisimple, decomposition.unipotent, log_unipotent(decomposition.unipotent)


def test_multiplicative_split_jordan_block():
    s, _, log_u = multiplicative_split(RationalMatrix([[1, 1], [0, 1]]))
    assert s == IDENT2
    assert log_u == E12


def test_multiplicative_split_diagonal():
    _, u, log_u = multiplicative_split(diag(2, 3))
    assert u == IDENT2
    assert log_u.is_zero()


def test_multiplicative_split_scaled_block():
    m = diag(2, 2) * RationalMatrix([[1, 1], [0, 1]])
    s, u, log_u = multiplicative_split(m)
    assert s == diag(2, 2)
    assert u == RationalMatrix([[1, 1], [0, 1]])
    assert s * u == m
    assert u * s == m
    assert log_u == E12


def test_exp_log_roundtrip():
    u = RationalMatrix([[1, 3], [0, 1]])
    assert exp_nilpotent(log_unipotent(u)) == u


entries = st.fractions(min_value=-4, max_value=4, max_denominator=2)


@st.composite
def square_matrices(draw, size=(2, 3)):
    n = draw(st.integers(*size))
    return RationalMatrix([[draw(entries) for _ in range(n)] for _ in range(n)])


@settings(max_examples=50, deadline=None)
@given(square_matrices())
def test_ad_operator_is_traceless(m):
    assert trace(ad_operator(m)) == 0


@settings(max_examples=30, deadline=None)
@given(square_matrices())
def test_jc_invariants_random(m):
    d = jordan_chevalley(m)
    assert d.semisimple + d.nilpotent == m
    assert commutator(d.semisimple, d.nilpotent).is_zero()
    assert is_semisimple(d.semisimple)
    assert is_nilpotent(d.nilpotent)


GRADED_RESIDUES = {
    "diagonal": ResidueData(s_list=(diag(0, 1, 3), diag(0, 1, 3)), positive_combination=(1, 1)),
    "conjugated": ResidueData(
        s_list=(RationalMatrix([[0, 1, 1], [0, 1, 2], [0, 0, 3]]),), positive_combination=(2,)),
    "chi": ResidueData(s_list=(IDENT2,), positive_combination=(1,), chi=(CHI_H, CHI_E, CHI_F)),
    # block_diag(A, A + I) with A = [[0, 2], [1, 0]] has the eigenvalues +-sqrt(2)
    # and 1 +- sqrt(2), none of them rational, and ad of it still has integer ones
    "sqrt2_blocks": ResidueData(s_list=(RationalMatrix([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 1, 2], [0, 0, 1, 1]]),),
                                positive_combination=(1,)),
    "rotation": ResidueData(s_list=(RationalMatrix([[0, -1], [1, 0]]),), positive_combination=(1,)),
}
GRADED_DIMS = {
    "diagonal": {-6: 1, -4: 1, -2: 1, 0: 3, 2: 1, 4: 1, 6: 1},
    "conjugated": {-6: 1, -4: 1, -2: 1, 0: 3, 2: 1, 4: 1, 6: 1},
    "chi": {0: 4},
    "sqrt2_blocks": {-1: 2, 0: 4, 1: 2},
    "rotation": {0: 2},
}


@pytest.mark.parametrize("name", GRADED_RESIDUES)
def test_grading_eigenspaces_are_the_integer_eigenspaces_of_ad(name):
    r = GRADED_RESIDUES[name]
    g = r.grading_element()
    ad = ad_operator(g)
    spaces = r.grading_eigenspaces
    assert spaces is r.grading_eigenspaces
    assert list(spaces) == integer_eigenvalues(ad)
    assert {lam: len(basis) for lam, basis in spaces.items()} == GRADED_DIMS[name]
    for lam, basis in spaces.items():
        assert all(commutator(g, mat) == lam * mat for mat in basis)
        assert len(basis) == len(rref(ad - lam * RationalMatrix.identity(ad.rows)).kernel)
        assert rref(RationalMatrix([mat.flatten() for mat in basis])).rank == len(basis)
    # the bracket oracle: each stored entry list is the flattened RationalMatrix
    # product, and the positions of equal values share one stored bracket
    values, classes, brackets = r.values, r.value_classes, r.grading_brackets
    assert brackets is r.grading_brackets and list(brackets) == list(spaces)
    assert classes == tuple(values.index(value) for value in values)
    for lam, basis in spaces.items():
        assert len(brackets[lam]) == len(basis)
        for mat, (entries, stored) in zip(basis, brackets[lam]):
            assert list(entries) == mat.flatten()
            assert [list(bracket) for bracket in stored] == [commutator(value, mat).flatten() for value in values]
            assert all(stored[k] is stored[first] for k, first in enumerate(classes))


def test_populated_grading_cache_keeps_equality_and_hash():
    r = ResidueData(s_list=(diag(0, 1, 3),), positive_combination=(1,))
    other = ResidueData(s_list=(diag(0, 1, 3),), positive_combination=(1,))
    before = hash(r)
    r.grading_eigenspaces, r.value_classes, r.grading_brackets, r.bracket_scalars, r.bracket_spectra, r.validity
    assert {"grading_eigenspaces", "value_classes", "grading_brackets", "bracket_scalars", "bracket_spectra",
            "validity"} <= set(vars(r))
    assert r == other
    assert hash(r) == before == hash(other)


def _conjugated_pair(first, second, seed):
    """Two diagonal values conjugated by one seeded P, so that they still commute."""
    return conjugated(first, random.Random(seed)), conjugated(second, random.Random(seed))


SPECTRUM_RESIDUES = {
    **GRADED_RESIDUES,
    "diagonal~conj": ResidueData(s_list=_conjugated_pair(diag(0, 1, 3), diag(2, 0, 0), 4), positive_combination=(1, 0)),
    "four~conj": ResidueData(s_list=_conjugated_pair(diag(0, 1, 2, 3), diag(1, 1, 0, 0), 9), positive_combination=(1, 1)),
    # ad diag(0, 1/2) takes -1/2 on E12 and 1/2 on E21, the -1- and 1-eigenspaces of the grading element diag(0, 1)
    "half": ResidueData(s_list=(diag(0, Fraction(1, 2)),), positive_combination=(2,)),
    "half_and_whole": ResidueData(s_list=(diag(0, 1), diag(0, Fraction(1, 3))), positive_combination=(1, 0)),
    # chi commutes with S, and ad chi is nilpotent, not diagonalizable, on the 0-eigenspace gl2 + gl1
    "nilpotent_chi": ResidueData(s_list=(diag(0, 0, 1),), positive_combination=(1,),
                                 chi=(RationalMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),)),
}


def rank_test_admits(residue, lam, k, q):
    """The oracle: whether some nonzero M of the lam-eigenspace has [C_k, M]_c = q * M, decided
    by one rank test on the columns q * M - [C_k, M] (all-zero rows dropped)."""
    pairs = residue.grading_brackets[lam]
    rows = [row for row in zip(*([q * v - b for v, b in zip(eig, brackets[k])] for eig, brackets in pairs))
            if any(row)]
    return not rows or rref(IntegerRows.cleared(rows, len(pairs))).rank < len(pairs)


@pytest.mark.parametrize("name", SPECTRUM_RESIDUES)
def test_eigenmatrices_are_one_at_their_last_nonzero_entry_and_alone_there(name):
    # the invariant bracket_spectra reads the restriction of ad C_k by
    for pairs in SPECTRUM_RESIDUES[name].grading_brackets.values():
        for i, (eig, _) in enumerate(pairs):
            end = max(p for p, v in enumerate(eig) if v)
            assert eig[end] == 1
            assert all(other[end] == 0 for j, (other, _) in enumerate(pairs) if j != i)


@pytest.mark.parametrize("name", SPECTRUM_RESIDUES)
def test_bracket_spectra_agree_with_the_rank_test(name):
    r = SPECTRUM_RESIDUES[name]
    spectra = r.bracket_spectra
    assert spectra is r.bracket_spectra and list(spectra) == list(r.grading_eigenspaces)
    rng = random.Random(name)
    probes = {Fraction(n, den) for n in range(-7, 8) for den in (1, 2, 3)}
    probes |= {rand_fraction(rng, span=12, den=6) for _ in range(30)}
    for lam, by_class in spectra.items():
        assert set(by_class) == set(r.value_classes)
        for k in r.value_classes:
            assert all(rank_test_admits(r, lam, k, q) for q in by_class[k])
            for q in probes:
                assert (q in by_class[k]) == rank_test_admits(r, lam, k, q)


@pytest.mark.parametrize("name", SPECTRUM_RESIDUES)
def test_bracket_scalars_are_the_eigenvalues_of_each_eigenmatrix(name):
    # mu * M = [C_k, M]_c for every eigenmatrix M where a class has scalars,
    # and some M is no eigenmatrix of ad C_k where it has None
    r = SPECTRUM_RESIDUES[name]
    assert r.bracket_scalars is r.bracket_scalars and list(r.bracket_scalars) == list(r.grading_eigenspaces)
    for lam, basis in r.grading_eigenspaces.items():
        assert set(r.bracket_scalars[lam]) == set(r.value_classes)
        for k, mus in r.bracket_scalars[lam].items():
            brackets = [commutator(r.values[k], mat) for mat in basis]
            if mus is None:
                assert any(rref(RationalMatrix([mat.flatten(), b.flatten()])).rank == 2
                           for mat, b in zip(basis, brackets))
            else:
                assert [mu * mat for mu, mat in zip(mus, basis)] == brackets
                assert r.bracket_spectra[lam][k] == set(mus)


def test_bracket_scalars_are_none_on_the_sl2_e_and_f_values():
    r = GRADED_RESIDUES["chi"]  # S = 1, chi = (h, e, f): the classes 0, 1, 2, 3
    assert r.value_classes == (0, 1, 2, 3)
    assert r.bracket_scalars[0][0] == (0, 0, 0, 0) and sorted(r.bracket_scalars[0][1]) == [-2, 0, 0, 2]
    assert r.bracket_scalars[0][2] is None and r.bracket_scalars[0][3] is None


def test_bracket_spectra_hold_the_non_integer_values():
    assert SPECTRUM_RESIDUES["half"].bracket_spectra == {
        -1: {0: {Fraction(-1, 2)}}, 0: {0: {0}}, 1: {0: {Fraction(1, 2)}}}
    assert SPECTRUM_RESIDUES["half_and_whole"].bracket_spectra == {
        -1: {0: {-1}, 1: {Fraction(-1, 3)}}, 0: {0: {0}, 1: {0}}, 1: {0: {1}, 1: {Fraction(1, 3)}}}
    assert SPECTRUM_RESIDUES["nilpotent_chi"].bracket_spectra[0] == {0: {0}, 1: {0}}


# the residues whose values are all diagonal, or not all diagonalizable over Q, are solved as written
WRITTEN = {"diagonal", "chi", "sqrt2_blocks", "rotation", "half", "half_and_whole", "nilpotent_chi", "sqrt2_and_one",
           "not_commuting"}
WEIGHT_RESIDUES = {
    **SPECTRUM_RESIDUES,
    # the eigenvalue 1 is rational, +-sqrt(2) are not
    "sqrt2_and_one": ResidueData(s_list=(RationalMatrix([[1, 1, 0], [0, 0, 2], [0, 1, 0]]),),
                                 positive_combination=(1,)),
    # each value is diagonalizable over Q, and their joint eigenspaces do not fill Q^2
    "not_commuting": ResidueData(s_list=(diag(0, 1), RationalMatrix([[1, 1], [0, 2]])), positive_combination=(1, 0)),
    "fraction~conj": ResidueData(s_list=(fraction_conjugated(diag(0, Fraction(1, 2), 3)),), positive_combination=(2,),
                                 chi=(fraction_conjugated(diag(1, 1, 0)),)),
}


@pytest.mark.parametrize("name", WEIGHT_RESIDUES)
def test_weight_form_diagonalizes_the_values_in_grading_order(name):
    r = WEIGHT_RESIDUES[name]
    assert r.weight_form is r.weight_form
    if name in WRITTEN:
        assert r.weight_form is None
        return
    p, gauged = r.weight_form
    p_inv = inverse(p)
    assert [p_inv * value * p for value in r.values] == list(gauged.values)
    assert gauged.positive_combination == r.positive_combination
    m = r.matrix_size
    assert all(s[i, j] == 0 for s in gauged.s_list for i in range(m) for j in range(m) if i != j)
    # the columns in increasing grading eigenvalue, then eigenvalues of each S_i
    keys = [(gauged.grading_element()[i, i], tuple(s[i, i] for s in gauged.s_list)) for i in range(m)]
    assert keys == sorted(keys)
    # and P's columns are the rref kernel vectors of their eigenspaces, 1 at their last nonzero entry
    for j in range(m):
        column = [p[i, j] for i in range(m)]
        assert column[max(i for i, v in enumerate(column) if v)] == 1
