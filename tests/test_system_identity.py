"""Byte identity of the emitted system JSON on 50 fixed inputs.

The inputs are the 13 criterion-3 problems, five normal crossings of toral
rank 3 to 5, five rank-3/4 diagonal residues, `cusp` with the wide gap
diag(0, 40) and the product `g2*sekiguchi_b5` (semisimple and graded slots
together) with S = (0, diag(0, 1)), each as written and conjugated by a
seeded unit upper-bidiagonal P (every residue value by the same P).  The
sha256 of each canonical system JSON was frozen before the emission was
rewritten in the divisor's own ring (cases added later were frozen before
the next change to `moduli`: the six after `borel2/diag(0,1,2)` before it
moved to flat rational coefficients, the product before the solve and the
emission shared one sparse product); any change to the equations, their
order or their coordinates shows up here.
"""

import hashlib
import random

import pytest

from logres import ResidueData, moduli_system, serialize

from conftest import CHI_E, CHI_F, CHI_H, S01, ZERO2, conjugated, diag, divisor_named, residue_for

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
}


def residue_of(label: str) -> ResidueData:
    """The residue of one case; a "~conj" label conjugates every value by one P."""
    name, s, chi = INPUTS[label.removesuffix("~conj")]
    residue = residue_for(divisor_named(name), s, chi)
    if not label.endswith("~conj"):
        return residue

    def conj(value):
        # a fresh generator per value draws the same P for all of them
        return conjugated(value, random.Random(f"identity:{label}"))

    return ResidueData(
        s_list=tuple(conj(v) for v in residue.s_list),
        positive_combination=residue.positive_combination,
        chi=tuple(conj(v) for v in residue.chi) if residue.chi is not None else None,
    )


def system_sha256(label: str) -> str:
    d = divisor_named(INPUTS[label.removesuffix("~conj")][0])
    system = moduli_system(d, residue_of(label)).system
    text = serialize.canonical_dumps(serialize.system_to_json(system, d.variables))
    return hashlib.sha256(text.encode()).hexdigest()


LABELS = [label + form for label in INPUTS for form in ("", "~conj")]


def test_the_case_list_is_complete():
    assert len(LABELS) == 50 and set(FROZEN) == set(LABELS)


@pytest.mark.parametrize("label", LABELS)
def test_system_json_is_byte_identical(label):
    assert system_sha256(label) == FROZEN[label]
