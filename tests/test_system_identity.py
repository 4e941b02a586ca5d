"""Byte identity of the emitted system JSON on 53 fixed inputs.

The inputs are the 13 criterion-3 problems, five normal crossings of toral
rank 3 to 5, five rank-3/4 diagonal residues, `cusp` with the wide gap
diag(0, 40) and the product `g2*sekiguchi_b5` (semisimple and graded slots
together) with S = (0, diag(0, 1)), each as written and conjugated by a
seeded unit upper-bidiagonal P (every residue value by the same P).  Those
emit integral coefficients only, so three rank-3/4 cases are also conjugated
by a fixed unit upper-triangular P with entries 1/2 and -2/3 ("~frac"),
whose systems carry non-integral coefficients.  The sha256 of each
canonical system JSON was frozen before the emission was
rewritten in the divisor's own ring (cases added later were frozen before
the next change to `moduli`: the "~frac" cases before emission kept
integral coefficients as ints, the six after `borel2/diag(0,1,2)` before it
moved to flat rational coefficients, the product before the solve and the
emission shared one sparse product); any change to the equations, their
order or their coordinates shows up here.

The same bytes must come out with the character sieve of
``moduli._solve_slot`` turned off (every divisor given no characters), on
every case here, on seeded residues with a distinct diagonal S per toral
slot, and on seeded residues with a nonzero chi on the semisimple slots;
the solve without the sieve is the oracle for the one with it.
"""

import functools
import hashlib
import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from logres import (FrameElement, FreeDivisor, RationalMatrix, ResidueData, catalog, moduli_system, serialize,
                    symmetry_algebra)
from logres.divisor import SEMISIMPLE, TORAL
from logres.moduli import _terms

from conftest import (CHI_E, CHI_F, CHI_H, S01, ZERO2, conjugated, diag, divisor_named, fraction_conjugated,
                      rand_fraction, residue_for)

INPUTS = {f"{name}/{tag}": (name, s, "auto")
          for name in ("cusp", "normal_crossing_2", "borel2", "g2", "d4", "sekiguchi_b5")
          for tag, s in (("0", ZERO2), ("S01", S01))}
INPUTS["g2/0+sl2"] = ("g2", ZERO2, (CHI_H, CHI_E, CHI_F))
INPUTS.update({
    "normal_crossing_3/S01": ("normal_crossing_3", S01, "auto"),
    "normal_crossing_4/S01": ("normal_crossing_4", S01, "auto"),
    "normal_crossing_5/S01": ("normal_crossing_5", S01, "auto"),
    "normal_crossing_4/diag(0,2)": ("normal_crossing_4", diag(0, 2), "auto"),
    "normal_crossing_4/diag(0,1,2)": ("normal_crossing_4", diag(0, 1, 2), "auto"),
    "cusp/diag(0,1,2,3)": ("cusp", diag(0, 1, 2, 3), "auto"),
    "sekiguchi_b5/diag(0,1,2)": ("sekiguchi_b5", diag(0, 1, 2), "auto"),
    "borel2/diag(0,1,2)": ("borel2", diag(0, 1, 2), "auto"),
    "sekiguchi_b5/diag(0,1,2,3)": ("sekiguchi_b5", diag(0, 1, 2, 3), "auto"),
    "borel2/diag(0,1,2,3)": ("borel2", diag(0, 1, 2, 3), "auto"),
    "cusp/diag(0,40)": ("cusp", diag(0, 40), "auto"),
    "g2*sekiguchi_b5/(0,S01)": ("g2*sekiguchi_b5", (ZERO2, S01), "auto"),
})

FROZEN = {
    'cusp/0': 'de4dad00ec99f3fcdeb825ce8fbcc48b8e3a934e2fe0010b1869037465b12374',
    'cusp/0~conj': 'de4dad00ec99f3fcdeb825ce8fbcc48b8e3a934e2fe0010b1869037465b12374',
    'cusp/S01': '8507f100a91f10140e3d4c374a544cb50ab033cf54f216f111e5336530520d31',
    'cusp/S01~conj': 'a1dc14e6c99db672b133f1c51bb0b69090e81120ef8e7fa6319e125c28218163',
    'normal_crossing_2/0': '04809b793180754a5aa71db30a5d72f7c82b96b3ab92513f461d8c9b9966d091',
    'normal_crossing_2/0~conj': '04809b793180754a5aa71db30a5d72f7c82b96b3ab92513f461d8c9b9966d091',
    'normal_crossing_2/S01': '48f6f215acee7e9d64f8b14f9b8bb132049698a7ed0cf74d196a3e75516a2db0',
    'normal_crossing_2/S01~conj': 'e5bd1fd97f0f8f1b60e3c855dd99c786508fbb087e24fd9560945c80121fb44e',
    'borel2/0': '59089ae6d1d40f2f214446b70e108f472ed0bfaca84a65ed39b814523088fec7',
    'borel2/0~conj': '59089ae6d1d40f2f214446b70e108f472ed0bfaca84a65ed39b814523088fec7',
    'borel2/S01': 'dfdeb0c41497475a2e7e05c55d27cb3fb8014773105ac9bf9259acbc9b176f5d',
    'borel2/S01~conj': '4f88dbfa0386f0af925d965ea620e93842bbc6545a81f2bc35c952a4490a35a8',
    'g2/0': '826d27f0d37f0ee99dc3ddcfbeaacb90d1f4848e4ff7756957aa2f8099a58066',
    'g2/0~conj': '826d27f0d37f0ee99dc3ddcfbeaacb90d1f4848e4ff7756957aa2f8099a58066',
    'g2/S01': '2c7050cafeaf7f158522408e20c55e1c8082186d7ceb10b5d8afa82fe1d7e539',
    'g2/S01~conj': 'f1dcf34b95e60ee1f9c5dabf46b5fad738a428aea18221b99bd3078435fb143d',
    'd4/0': '5173df7924a964b12532dc38517cd321193198a4e66c454b6571494bc3624662',
    'd4/0~conj': '5173df7924a964b12532dc38517cd321193198a4e66c454b6571494bc3624662',
    'd4/S01': 'd58f43fb7a377fc81ec2238b2cdcf8912152628921310f7a99b31ea19223eba5',
    'd4/S01~conj': 'e0e3a84735d9b5bfab34fbba9545afa41fe1ea2a86d0a607058d016643b59cbb',
    'sekiguchi_b5/0': '78e08ce7d079b8ca38280836aef519a6c6968aaec0573186fb9146ed277d86e2',
    'sekiguchi_b5/0~conj': '78e08ce7d079b8ca38280836aef519a6c6968aaec0573186fb9146ed277d86e2',
    'sekiguchi_b5/S01': '692d49741cc3f236fe9549685090b573e826b59175e0b398ad3ce22e3240debb',
    'sekiguchi_b5/S01~conj': 'e6844b0c69beeaa734b825996bf57f8e941ece360c66d9edeb5056c2fdc88cd5',
    'g2/0+sl2': '2ed8354cfcf332670a80b254fbd2c897b31181570ab4a03520223cecda89e09d',
    'g2/0+sl2~conj': '2ed8354cfcf332670a80b254fbd2c897b31181570ab4a03520223cecda89e09d',
    'normal_crossing_3/S01': 'ce6e8b29c2beefe120d12bc47533607d70191c6b275f02cc22af981c27a11a8b',
    'normal_crossing_3/S01~conj': '29c26ed53bb3cdd2d52b18f231eb148e66db432ba7baebd64bb1c62463e44169',
    'normal_crossing_4/S01': 'e050b951cbdd4eabf3ece9e0f88110cda281dcdaee8961affabb26017d9df9aa',
    'normal_crossing_4/S01~conj': '1c202b939a2e14dc0436062b7402f98b0e5c3b364be67ce88be6bc365f31beb5',
    'normal_crossing_5/S01': '63f3d62e4aa832812e59ddeeb3afddc45448df92cbee6d3f6677ceea6801352d',
    'normal_crossing_5/S01~conj': '0d0700d53af88a3e8a7eb876d08e3ab489808d7b2ac724679dc6de852aecf770',
    'normal_crossing_4/diag(0,2)': '349e73e7457815aed0a05b76ad2423593fd0dc7f2d58ab6c69cc7aa80cca8766',
    'normal_crossing_4/diag(0,2)~conj': '92c1fba17b9c3d48d38a135489cff3143458d8d2d7dc16ce7d93161b43f9a6e1',
    'normal_crossing_4/diag(0,1,2)': 'c2c942ccf0aa65a4c15d338441a86f627470eefb1b661532391ef641aca032b6',
    'normal_crossing_4/diag(0,1,2)~conj': '141edf6656c81c7a7cf1efc357d80b6410f6c32ac9dd4491c9d656343cfccf0b',
    'cusp/diag(0,1,2,3)': 'db13d4b35b380d728d41998722cefc13fd66d913df5e1b7f7d9336cd657602ed',
    'cusp/diag(0,1,2,3)~conj': '65d0a84c8ea0a75a84423e8f2620c14ebaa7dee399f47989e84001f663f93ec0',
    'sekiguchi_b5/diag(0,1,2)': '60ac6934048252d4d7909a1d13c2c2b2102dccb811e8739f59bfac9d33300072',
    'sekiguchi_b5/diag(0,1,2)~conj': '52d14902c15f37f4b0ae1aab33eedf7dbb3a0e742694ebe750e5019613165ff5',
    'borel2/diag(0,1,2)': '5688f5bfc9e344e43d74880e656ddd8fe9ebb2fe46fec18e3ab948e0d6dcad1a',
    'borel2/diag(0,1,2)~conj': 'c87417aee0e7053062c39eb43e6f4228c36e8ab0b4f79d9caace999c77d3576d',
    'sekiguchi_b5/diag(0,1,2,3)': 'e6587388c9f7a318c805c9cb43174e1c20463f61abdc35bea2e984fc7d63f53f',
    'sekiguchi_b5/diag(0,1,2,3)~conj': 'f126491eb7e7e673ef052f49601ea6f645fae04a5ec76fc2210cf4df74062ecc',
    'borel2/diag(0,1,2,3)': '80ad257d598e9bbdc8ba5574675a03b9b6c0dc5ba63ab6609bef24f7b1636e57',
    'borel2/diag(0,1,2,3)~conj': 'f838ec1d2e2a98841c170dde1d68db8ab81a42059e301813575bb5b950d843a4',
    'cusp/diag(0,40)': 'c958952ce493442392e3d4d9ca5f99fc0e57ea008dd66f69b2ed25a987c2b1e8',
    'cusp/diag(0,40)~conj': 'e1cf60d701e74451cd85a0e9e385fb79dc990ec5ffcd143b5566e4258a5f509c',
    'g2*sekiguchi_b5/(0,S01)': '821d197b8c098825cfefea74f21e0a5d9614fb79de7129cca119491b8e14ad8b',
    'g2*sekiguchi_b5/(0,S01)~conj': '9fd3f302caa308aca11e85aa9c3efba606867f9c7eb2077b9a0fdfcd2052ff8f',
    'cusp/diag(0,1,2,3)~frac': '3c0a675500d160a8e40c24bd34e19749bc8ab294771c239e7fce95021c152123',
    'borel2/diag(0,1,2)~frac': '3002aa88692a17f7b913330aabaed0018d604cc1696149ccad9ec3a887f3b102',
    'sekiguchi_b5/diag(0,1,2)~frac': 'dcacab9911084d7a3256e950d9b9a53172e10f196ebf9ab31207890c8598b28b',
}


def base_label(label: str) -> str:
    return label.removesuffix("~conj").removesuffix("~frac")


def residue_of(label: str) -> ResidueData:
    """The residue of one case; a "~conj" or "~frac" label conjugates every value by one P."""
    name, s, chi = INPUTS[base_label(label)]
    residue = residue_for(divisor_named(name), s, chi)
    if label.endswith("~frac"):
        conj = fraction_conjugated
    elif label.endswith("~conj"):
        def conj(value):
            # a fresh generator per value draws the same P for all of them
            return conjugated(value, random.Random(f"identity:{label}"))
    else:
        return residue

    return ResidueData(
        s_list=tuple(conj(v) for v in residue.s_list),
        positive_combination=residue.positive_combination,
        chi=tuple(conj(v) for v in residue.chi) if residue.chi is not None else None,
    )


@functools.lru_cache(maxsize=None)
def problem_of(label: str):
    return moduli_system(divisor_named(INPUTS[base_label(label)][0]), residue_of(label))


@functools.lru_cache(maxsize=None)
def system_of(label: str):
    """The divisor's variables, the emitted system and its JSON payload."""
    problem = problem_of(label)
    variables = problem.divisor.variables
    return variables, problem.system, serialize.system_to_json(problem.system, variables)


def system_sha256(label: str) -> str:
    text = serialize.canonical_dumps(system_of(label)[2])
    return hashlib.sha256(text.encode()).hexdigest()


FRACTIONAL = ["cusp/diag(0,1,2,3)~frac", "borel2/diag(0,1,2)~frac", "sekiguchi_b5/diag(0,1,2)~frac"]
LABELS = [label + form for label in INPUTS for form in ("", "~conj")] + FRACTIONAL


def test_the_case_list_is_complete():
    assert len(LABELS) == 53 and set(FROZEN) == set(LABELS)


@pytest.mark.parametrize("label", FRACTIONAL)
def test_fractional_cases_emit_non_integral_coefficients(label):
    system = system_of(label)[1]
    assert any(coeff.denominator != 1 for eq in system.equations for coeff in eq.terms.values())


@pytest.mark.parametrize("label", LABELS)
def test_sparse_equations_match_their_dense_view(label):
    """The sparse terms, the dense ``poly`` view and the JSON all carry the
    same polynomial, with the same text; evaluation agrees at seeded points,
    and reading the JSON back gives the same sparse terms."""
    _, system, payload = system_of(label)
    width = max(len(system.coordinates), 1)
    for eq, data in zip(system.equations, payload["equations"]):
        assert eq.poly.weights == (1,) * width
        assert eq.poly.terms == {tuple(t["exponents"]): Fraction(t["coeff"]) for t in data["poly"]}
        assert all(isinstance(coeff, Fraction) for coeff in eq.terms.values())
        assert eq.format(system.coordinate_names) == eq.poly.format(system.coordinate_names)
    rng = random.Random(f"evaluate:{label}")
    values = [rand_fraction(rng) for _ in system.coordinates]
    assert system.evaluate(values) == [eq.poly.evaluate(values or [0]) for eq in system.equations]
    back = serialize.system_from_json(payload)
    assert [eq.terms for eq in back.equations] == [eq.terms for eq in system.equations]
    assert back.equations == system.equations


@pytest.mark.parametrize("label", LABELS)
def test_system_json_is_byte_identical(label):
    assert system_sha256(label) == FROZEN[label]


@pytest.mark.parametrize("label", LABELS)
def test_solution_spaces_keep_their_basis_as_terms(label):
    """Each space's lazy ``basis`` flattens back to its stored terms, whose
    integral coefficients are ints and whose monomials all have the stored
    E-degree; ``dims_by_degree`` counts the stored degrees in increasing
    order, the coordinates carry them, and the symmetry algebra is the first
    correction space, equal to a fresh ``symmetry_algebra``."""
    problem = problem_of(label)
    spaces = problem.component_spaces + problem.correction_spaces
    for space in spaces:
        assert [_terms(mp) for mp in space.basis] == [list(terms) for _, terms in space.elements]
        for degree, terms in space.elements:
            assert {sum(map(mul, space.weights, mono)) for _, _, mono, _ in terms} == {degree}
            assert all(isinstance(coeff, int) or coeff.denominator != 1 for *_, coeff in terms)
        assert space.dims_by_degree == Counter(degree for degree, _ in space.elements)
        assert list(space.dims_by_degree) == sorted(space.dims_by_degree)
    assert [c.degree for c in problem.system.coordinates] == [
        degree for space in spaces for degree, _ in space.elements]
    assert problem.symmetry is problem.correction_spaces[0]
    assert problem.symmetry == symmetry_algebra(problem.divisor, problem.residue)


# ------------------------------------------ the solve without the character sieve

def sieve_off(monkeypatch):
    """Give every divisor no characters, so that ``_solve_slot`` sieves no monomial."""
    monkeypatch.setattr(FreeDivisor, "diagonal_characters", property(lambda d: ()))


def emitted_json(d: FreeDivisor, residue: ResidueData) -> str:
    return serialize.canonical_dumps(serialize.system_to_json(moduli_system(d, residue).system, d.variables))


def test_the_identity_cases_reach_the_sieve():
    assert {name for name, _, _ in INPUTS.values() if divisor_named(name).diagonal_characters} == {
        "normal_crossing_2", "normal_crossing_3", "normal_crossing_4", "normal_crossing_5", "borel2", "d4", "g2",
        "g2*sekiguchi_b5"}


@pytest.mark.parametrize("label", LABELS)
def test_system_json_is_byte_identical_without_the_sieve(label, monkeypatch):
    sieve_off(monkeypatch)
    d = divisor_named(INPUTS[base_label(label)][0])
    assert hashlib.sha256(emitted_json(d, residue_of(label)).encode()).hexdigest() == FROZEN[label]


def seeded_residues(d: FreeDivisor):
    """Residues with a distinct seeded diagonal integer S on each toral slot,
    m = 2 or 3, as written and conjugated by one seeded P."""
    for seed in range(6):
        rng = random.Random(f"sieve:{d.name}:{seed}")
        m = 2 + seed % 2
        values = []
        while len(values) < d.toral_count:
            value = diag(*(rng.randint(0, 2) for _ in range(m)))
            if value not in values:
                values.append(value)
        yield f"{seed}", residue_for(d, tuple(values))
        p_seed = f"sieve-conj:{d.name}:{seed}"
        yield f"{seed}~conj", residue_for(d, tuple(conjugated(v, random.Random(p_seed)) for v in values))


def borel2_h() -> FreeDivisor:
    """borel2 with its toral fields e1, e2 traded for the Euler field e1 + e2
    and the semisimple field h = e1 - e2 = 2x d/dx - 2z d/dz.  h scales the
    graded field v = x d/dy + 2y d/dz by 2, so v's slot solve has a nonzero
    semisimple offset, which no catalog frame has."""
    d = catalog("borel2")
    e1, e2, v = d.frame
    return FreeDivisor(name="borel2_h", variables=d.variables, weights=d.weights, f=d.f, degree=d.degree,
                       frame=(FrameElement(TORAL, e1.field + e2.field, distinguished=True),
                              FrameElement(SEMISIMPLE, e1.field - e2.field), v),
                       positive_combination=(1,))


# the sl2 chi that the frame's bracket accepts, in each divisor's semisimple slot order
SL2_CHI = {"g2": (CHI_H, CHI_E, CHI_F), "d4": (CHI_H, CHI_F, CHI_E)}


def padded(value: RationalMatrix, m: int) -> RationalMatrix:
    """A 2 x 2 value in the top left corner of an m x m zero matrix."""
    return RationalMatrix([[value[i, j] if i < 2 and j < 2 else 0 for j in range(m)] for i in range(m)])


def seeded_chi_residues(d: FreeDivisor):
    """Residues with a nonzero chi on the semisimple slots, m = 2 or 3, as
    written and conjugated by one seeded P.

    On g2 and d4, chi is the sl2 triple of ``SL2_CHI``, next to a zero block
    when m = 3, and each toral slot gets a seeded S that commutes with it: a
    scalar or 0 when m = 2, and diag(a, a, b) when m = 3.  The one semisimple
    slot of ``borel2_h`` has no bracket to respect, so there chi and S are
    seeded diagonal matrices.
    """
    for seed in range(6):
        rng = random.Random(f"sieve-chi:{d.name}:{seed}")
        m = 2 + seed % 2
        if d.name in SL2_CHI:
            chi = tuple(padded(value, m) for value in SL2_CHI[d.name])
            s_list = []
            for _ in range(d.toral_count):
                a = rng.randint(0, 2)
                s_list.append(diag(a, a) if m == 2 else diag(a, a, rng.randint(0, 2)))
        else:
            chi = (diag(*(rng.randint(-2, 2) for _ in range(m))),)
            s_list = [diag(*(rng.randint(0, 2) for _ in range(m)))]
        yield f"chi{seed}", residue_for(d, tuple(s_list), chi)
        p_seed = f"sieve-chi-conj:{d.name}:{seed}"
        yield f"chi{seed}~conj", residue_for(d, tuple(conjugated(v, random.Random(p_seed)) for v in s_list),
                                             tuple(conjugated(v, random.Random(p_seed)) for v in chi))


@pytest.mark.parametrize("name", ["normal_crossing_2", "normal_crossing_3", "normal_crossing_4", "borel2", "d4", "g2",
                                  "borel2_h"])
def test_seeded_residues_emit_the_same_bytes_without_the_sieve(name, monkeypatch):
    d = borel2_h() if name == "borel2_h" else divisor_named(name)
    assert d.diagonal_characters
    cases = list(seeded_residues(d))
    if d.semisimple_indices:
        cases += seeded_chi_residues(d)
    sieved = {label: emitted_json(d, residue) for label, residue in cases}
    sieve_off(monkeypatch)
    assert {label: emitted_json(d, residue) for label, residue in cases} == sieved
