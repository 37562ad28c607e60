"""Each family's structure, pinned by literal values on one small group.

The expected values are written out by hand from the classical tables, not
read back from ``groups``: the ambient dimension n, the sign epsilon of the
invariant bilinear form, the sign eta of tau^2, dim g = n^2 - 1, n(n-1)/2 or
n(n+1)/2 over C, and doubled for the complex groups as real groups. The
per-block rules of `blocks.check_block` are pinned by their messages, and
`blocks.form_signature` by the per-kind chain it replaced.
"""

from random import Random

import pytest

from liebalance import blocks, groups
from liebalance.blocks import Block, ScenarioError
from liebalance.exact import Signature
from liebalance.groups import Family
from liebalance.randomgen import random_scenario
from liebalance.sweep import _configurations

KINDS_SL = {"real_cls", "conj_pair"}
KINDS_REAL_FORM = {"imag_pair", "split_pair", "quad_pair", "zero"}
KINDS_COMPLEX = {"dual_pair", "zero"}

# group, describe, ambient_dim, epsilon, eta, eta_epsilon, dim_complexified,
# dim_real, (is_complex, is_quaternionic, is_sl_like, is_orthogonal_like,
# is_compact), allowed block kinds
STRUCTURE = [
    (groups.sl_r(3), "SL(3,R)", 3, None, +1, None, 8, 8,
     (False, False, True, False, False), KINDS_SL),
    (groups.sl_c(2), "SL(2,C)", 2, None, None, None, 3, 6,
     (True, False, True, False, False), {"cls"}),
    (groups.sl_h(2), "SL(2,H)", 4, None, -1, None, 15, 15,
     (False, True, True, False, False), KINDS_SL),
    (groups.su(1, 2), "SU(1,2)", 3, None, None, None, 8, 8,
     (False, False, True, False, False), {"sesq_self", "sesq_pair"}),
    (groups.so(2, 1), "SO(2,1)", 3, +1, +1, +1, 3, 3,
     (False, False, False, True, False), KINDS_REAL_FORM),
    (groups.sp_r(4), "Sp(4,R)", 4, -1, +1, -1, 10, 10,
     (False, False, False, True, False), KINDS_REAL_FORM),
    (groups.sp(1, 1), "Sp(1,1)", 4, -1, -1, +1, 10, 10,
     (False, True, False, True, False), KINDS_REAL_FORM),
    (groups.so_star(6), "SO*(6)", 6, +1, -1, -1, 15, 15,
     (False, True, False, True, False), KINDS_REAL_FORM),
    (groups.so_c(3), "SO(3,C)", 3, +1, None, None, 3, 6,
     (True, False, False, True, False), KINDS_COMPLEX),
    (groups.sp_c(4), "Sp(4,C)", 4, -1, None, None, 10, 20,
     (True, False, False, True, False), KINDS_COMPLEX),
    (groups.so_c(2), "SO(2,C)", 2, +1, None, None, 1, 2,
     (True, False, False, True, False), KINDS_COMPLEX),
]

IDS = [row[1] for row in STRUCTURE]

# one block of every kind, to ask which kinds a family accepts
ONE_OF_EACH_KIND = [blocks.cls(1), blocks.real_cls(1), blocks.conj_pair(1),
                    blocks.sesq_self(1, (1, 0), (1, 0)), blocks.sesq_pair(1),
                    blocks.imag_pair(1, 1, (1, 0)), blocks.split_pair(1),
                    blocks.quad_pair(1), blocks.dual_pair(1),
                    blocks.zero_block(1, (1, 0))]


@pytest.mark.parametrize("row", STRUCTURE, ids=IDS)
def test_family_structure(row):
    spec, desc, n, eps, eta, ee, dim_c, dim_r, flags, _kinds = row
    assert spec.describe() == desc
    assert (spec.ambient_dim, spec.epsilon, spec.eta, spec.eta_epsilon) == (n, eps, eta, ee)
    assert (spec.dim_complexified, spec.dim_real) == (dim_c, dim_r)
    assert (spec.is_complex, spec.is_quaternionic, spec.is_sl_like,
            spec.is_orthogonal_like, spec.is_compact) == flags


@pytest.mark.parametrize("row", STRUCTURE, ids=IDS)
def test_family_block_kinds(row):
    spec, kinds = row[0], row[-1]
    accepted = set()
    for b in ONE_OF_EACH_KIND:
        try:
            blocks.normalize_blocks(spec, [b])
        except ScenarioError as exc:
            if "is not valid for" in str(exc):
                continue
        accepted.add(b.kind)
    assert accepted == kinds
    assert groups.FAMILIES[spec.family].kinds == kinds


@pytest.mark.parametrize("row", STRUCTURE, ids=IDS)
def test_only_so2_is_not_semisimple(row):
    spec = row[0]
    assert spec.is_semisimple == (spec.describe() != "SO(2,C)")


def test_so4_is_semisimple_though_not_simple():
    # so(4) = sl(2) + sl(2)
    assert groups.so_c(4).is_semisimple and groups.so(2, 2).is_semisimple


@pytest.mark.parametrize("spec, compact", [
    (groups.su(3, 0), True), (groups.su(0, 2), True), (groups.su(1, 1), False),
    (groups.so(4, 0), True), (groups.so(0, 3), True), (groups.so(3, 1), False),
    (groups.sp(2, 0), True), (groups.sp(0, 1), True), (groups.sp(1, 1), False),
    (groups.sl_r(2), False), (groups.sp_r(2), False), (groups.so_star(4), False),
], ids=lambda x: x.describe() if isinstance(x, groups.GroupSpec) else str(x))
def test_compact_exactly_for_definite_forms(spec, compact):
    assert spec.is_compact == compact


# -- the per-block rules: one home, today's messages ------------------------

RULE_CASES = [
    (Family.SU, blocks.real_cls(1), "block kind 'real_cls' is not valid for SU"),
    (Family.SO, blocks.split_pair(0), "block dimensions and multiplicities must be >= 1"),
    (Family.SO, Block("imag_pair", 1), "ImagPair blocks need a signature"),
    (Family.SO, blocks.zero_block(1), "zero blocks of real forms need a signature"),
    (Family.SO_C, blocks.zero_block(2, (2, 0)),
     "zero blocks of SO_C carry no signature"),
    (Family.SL_R, Block("real_cls", 1, sig=Signature(1, 0)), "real_cls blocks of SL_R carry no signature"),
    (Family.SL_H, blocks.real_cls(1), "tau-stable blocks of quaternionic forms need even dimension"),
    (Family.SP, blocks.zero_block(1, (1, 0)),
     "the zero block of a quaternionic form has even dimension"),
    (Family.SP_C, blocks.zero_block(1), "the zero block of a symplectic form has even dimension"),
    (Family.SP_R, blocks.zero_block(2, (2, 0)),
     "for Sp(2m,R) and SO*(2m) the zero block has vanishing signature"),
    (Family.SP, blocks.zero_block(2, (1, 1)), "quaternionic zero blocks have even signature parts"),
]


@pytest.mark.parametrize("family,block,message", RULE_CASES,
                         ids=[f"{family.value}-{block.kind}" for family, block, _ in RULE_CASES])
def test_check_block_rules(family, block, message):
    with pytest.raises(ScenarioError) as exc:
        blocks.check_block(family, block)
    assert str(exc.value) == message


# -- the form signature: one rule, against the per-kind chain it replaced -----

def _chain_form_signature(bl):
    """The per-kind chain `blocks.form_signature` replaced, kept as the
    reference."""
    pos = neg = 0
    for b in bl:
        if b.kind in ("sesq_self", "zero"):
            pos, neg = pos + b.sig.pos, neg + b.sig.neg
        elif b.kind == "imag_pair":
            pos, neg = pos + 2 * b.sig.pos, neg + 2 * b.sig.neg
        elif b.kind in ("sesq_pair", "split_pair"):
            pos, neg = pos + b.d_eff, neg + b.d_eff
        elif b.kind == "quad_pair":
            pos, neg = pos + 2 * b.d_eff, neg + 2 * b.d_eff
        else:
            raise AssertionError(f"{b.kind} blocks carry no form signature")
    return pos, neg


def _form_signature_cases():
    for family, bound in [(Family.SU, 8), (Family.SO, 9), (Family.SP, 10), (Family.SP_R, 8),
                          (Family.SO_STAR, 10)]:
        yield from _configurations(family, bound)
    for family in (Family.SU, Family.SO, Family.SP):
        rng = Random(15)
        for _ in range(500):
            yield random_scenario(family, rng)[1]


def test_form_signature_equals_the_per_kind_chain():
    cases = 0
    for bl in _form_signature_cases():
        assert blocks.form_signature(bl) == _chain_form_signature(bl), bl
        cases += 1
    assert cases == 5004


@pytest.mark.parametrize("block", [blocks.cls(1), blocks.real_cls(1), blocks.conj_pair(1),
                                   blocks.dual_pair(1)], ids=lambda b: b.kind)
def test_kinds_without_a_form_have_no_form_signature(block):
    with pytest.raises(AssertionError):
        blocks.form_signature([blocks.sesq_pair(1), block])
