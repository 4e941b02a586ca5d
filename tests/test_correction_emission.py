"""The correction equations are emitted once and shifted to every toral slot.

``moduli_system`` computes ZN on the first correction, NN-commute on the
first two and nilpotency on the first, and renumbers the coordinates of each
value for the other slots.  The oracle here is a per-slot emission: every
value recomputed on each slot's own correction, from the same sparse
product.  The two must agree equation by equation, down to the
order of each equation's terms.
"""

import random
from fractions import Fraction

import pytest

from logres import catalog, moduli, moduli_system
from logres.moduli import _commutator, _matmul, _products, _sub
from logres.univariate import power

from conftest import S01, as_written, conjugated, diag, divisor_named, residue_for

NAMES = ["normal_crossing_2", "normal_crossing_3", "normal_crossing_4", "normal_crossing_5", "borel2", "d4",
         "g2*sekiguchi_b5"]


def per_slot_equations(problem):
    """(tag, frame slots, entry, base monomial, term items) of each ZN,
    NN-commute and nilpotency equation, computed on every slot's own
    correction, in emission order."""
    d, m = problem.divisor, problem.residue.matrix_size
    general, count = [], 0
    for space in problem.component_spaces + problem.correction_spaces:
        value = {}
        for _, terms in space.elements:
            value.update((((count,), r, c, mono), coeff) for r, c, mono, coeff in terms)
            count += 1
        general.append(value)
    comps, corrs = general[:len(problem.component_spaces)], general[len(problem.component_spaces):]

    def apply(i, value):
        out = {}
        for (key, r, c, mono), coeff in value.items():
            for image, image_coeff in d.frame[i].field.on_monomial(mono).items():
                out[key, r, c, image] = out.get((key, r, c, image), 0) + coeff * image_coeff
        return {key: coeff for key, coeff in out.items() if coeff}

    def split(tag, frame_slots, value):
        groups = {}
        for (key, r, c, base), coeff in value.items():
            groups.setdefault((r, c, base), {})[key] = Fraction(coeff)
        order = sorted(groups, key=lambda g: (g[0], g[1], sum(map(int.__mul__, d.weights, g[2])), g[2]))
        return [(tag, frame_slots, (r, c), base, list(groups[r, c, base].items())) for r, c, base in order]

    out = []
    for a, i in enumerate(d.w_indices):
        for l, correction in enumerate(corrs):
            out += split("ZN", (i, d.toral_indices[l]), _sub(apply(i, correction), _commutator(comps[a], correction)))
    for l1 in range(d.toral_count):
        for l2 in range(l1 + 1, d.toral_count):
            out += split("NN-commute", (d.toral_indices[l1], d.toral_indices[l2]), _commutator(corrs[l1], corrs[l2]))
    for l, correction in enumerate(corrs):
        out += split("nilpotency", (d.toral_indices[l],), power(correction, m, _matmul))
    return out


def residues(d):
    """S01 on every toral slot, then a distinct seeded diagonal S per toral
    slot, m = 2 and 3, as written and conjugated by one seeded P; a conjugated
    one is solved as written (``as_written``), as the gauged solve would give
    the diagonal residue's problem again."""
    yield "S01", residue_for(d, S01)
    for seed in range(2):
        rng = random.Random(f"shift:{d.name}:{seed}")
        m = 2 + seed
        values = []
        while len(values) < d.toral_count:
            value = diag(*(rng.randint(0, 2) for _ in range(m)))
            if value not in values:
                values.append(value)
        yield f"{seed}", residue_for(d, tuple(values))
        p_seed = f"shift-conj:{d.name}:{seed}"
        yield f"{seed}~conj", residue_for(d, tuple(conjugated(v, random.Random(p_seed)) for v in values))


@pytest.mark.parametrize("name", NAMES)
def test_shifted_corrections_match_the_per_slot_emission(name):
    d = divisor_named(name)
    for label, residue in residues(d):
        problem = as_written(d, residue) if label.endswith("~conj") else moduli_system(d, residue)
        equations = problem.system.equations
        emitted = [(eq.tag, eq.frame_slots, eq.entry, eq.base_monomial, list(eq.terms.items()))
                   for eq in equations if eq.tag != "curvature"]
        assert emitted == per_slot_equations(problem), label
        assert all(eq.ncoords == len(problem.system.coordinates) for eq in equations)
        if d.toral_count > 1 and problem.correction_spaces[0].dimension:
            # the shifted values do reach the coordinates of the later slots
            last = len(problem.system.coordinates) - 1
            assert any(last in key for eq in equations if eq.tag == "nilpotency" for key in eq.terms), label


def test_the_emission_products_do_not_grow_with_the_toral_rank(monkeypatch):
    # S01 on every slot of normal_crossing_k: the solve multiplies no
    # matrices (it reads the residue's cached brackets), NN-commute makes one
    # commutator (2 factor pairs of the product kernel) and nilpotency one
    # square (1), whatever k is; an emission per slot or pair of slots makes
    # 15, 31 and 70 factor pairs
    calls = []

    def counting_products(*factors):
        calls.extend(factors)
        return _products(*factors)

    monkeypatch.setattr(moduli, "_products", counting_products)
    counts = []
    for k in (3, 5, 8):
        d = catalog(f"normal_crossing_{k}")
        calls.clear()
        assert moduli_system(d, residue_for(d, S01)).system.equations
        counts.append(len(calls))
    assert counts == [3, 3, 3]
