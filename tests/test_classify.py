import inspect
import random
from pathlib import Path

import pytest

from liebalance import blocks, groups, scenario
from liebalance.balance import BalancednessCertificate
from liebalance.blocks import ScenarioError
from liebalance.classify import (InternalConsistencyError, assignments, classify,
                                 rigid_shape)
from liebalance.groups import Family
from liebalance.randomgen import random_scenario
from liebalance.roots import root_system
from liebalance.toledo import Decoration, Status, SurfaceData, propagate_constraints


def run(spec, bl, decos=()):
    sys = root_system(spec, bl)
    surf = SurfaceData(genus=max(2, spec.genus_bound()))
    prop = propagate_constraints(spec, sys, list(decos), surf)
    return classify(spec, surf, sys, prop), prop


def test_the_package_exports_the_classify_module():
    import liebalance
    from liebalance import classify as classify_mod

    assert inspect.ismodule(liebalance.classify) and classify_mod.classify is classify
    assert "classify" not in liebalance.__all__


def test_special_linear_families_flexible():
    v, _ = run(groups.sl_r(4), [blocks.conj_pair(2, 1)])
    assert v.flexible and v.reason == "special_linear_nonvanishing"
    v, _ = run(groups.sl_h(2), [blocks.conj_pair(2, 1)])
    assert v.flexible
    v, _ = run(groups.sl_c(4), [blocks.cls(1), blocks.cls(3)])
    assert v.flexible and v.reason == "complex_group"


def test_compact_groups_flexible():
    v, _ = run(groups.su(3, 0), [blocks.sesq_self(3, (3, 0), (1, 0))])
    assert v.flexible and v.reason == "compact_group"
    v, _ = run(groups.so(4, 0), [blocks.imag_pair(1, 1, (1, 0), label="a"),
                                 blocks.imag_pair(1, 1, (1, 0), label="b")])
    assert v.flexible and v.reason == "compact_group"


def test_skew_ambient_always_flexible():
    v, _ = run(groups.sp_r(4), [blocks.imag_pair(1, 1, (1, 0)),
                                blocks.zero_block(2, (1, 1))],
               [Decoration("0", Status.MAXIMAL_POSITIVE)])
    assert v.flexible and v.reason == "skew_ambient_form"
    v, _ = run(groups.sp(1, 2), [blocks.imag_pair(1, 1, (1, 0)),
                                 blocks.zero_block(4, (2, 2))])
    assert v.flexible


def test_non_imaginary_weight_short_circuit():
    v, _ = run(groups.so(3, 3), [blocks.imag_pair(1, 1, (1, 0)),
                                 blocks.split_pair(1, 1),
                                 blocks.zero_block(2, (0, 2))])
    assert v.flexible and v.reason == "non_imaginary_weight"


def test_su_rigid_and_descriptor():
    spec = groups.su(2, 3)
    bl = [blocks.sesq_self(1, (0, 1), (1, 0), label="D"),
          blocks.sesq_self(2, (1, 1), (2, 0), label="E")]
    v, _ = run(spec, bl, [Decoration("E:il", Status.MAXIMAL_POSITIVE)])
    assert v.outcome == "rigid_maximal"
    assert v.descriptor == "S(U(2,2) x U(1))"
    v, _ = run(spec, bl, [Decoration("E:il", Status.MAXIMAL_NEGATIVE)])
    assert v.outcome == "rigid_maximal"
    v, _ = run(spec, bl, [Decoration("E:il", Status.NON_MAXIMAL)])
    assert v.flexible and v.reason == "balanced"


def test_su_undecorated_is_indeterminate():
    spec = groups.su(2, 3)
    bl = [blocks.sesq_self(1, (0, 1), (1, 0), label="D"),
          blocks.sesq_self(2, (1, 1), (2, 0), label="E")]
    v, _ = run(spec, bl)
    assert v.outcome == "indeterminate"
    assert v.unknown == ["E:il"]


def test_su_mixed_definite_signs_balanced():
    spec = groups.su(3, 3)
    bl = [blocks.sesq_self(1, (1, 0), (1, 0), label="d1"),
          blocks.sesq_self(1, (0, 1), (1, 0), label="d2"),
          blocks.sesq_self(2, (1, 1), (2, 0), label="E")]
    v, _ = run(spec, bl, [Decoration("E:il", Status.MAXIMAL_POSITIVE)])
    assert v.flexible


def test_su_split_tube_type_is_flexible():
    # p = q: every datum must come out balanced
    spec = groups.su(2, 2)
    bl = [blocks.sesq_self(2, (1, 1), (2, 0), label="E")]
    v, _ = run(spec, bl, [Decoration("E:il", Status.MAXIMAL_POSITIVE)])
    assert v.flexible


def test_so_star_rigid_shape():
    spec = groups.so_star(6)
    bl = [blocks.imag_pair(1, 1, (1, 0)), blocks.zero_block(4, (2, 2))]
    v, _ = run(spec, bl, [Decoration("0", Status.MAXIMAL_POSITIVE)])
    assert v.outcome == "rigid_maximal"
    assert v.descriptor == "SO*(4) x SO(2)"


def test_so_star_finer_presentation_rigid():
    spec = groups.so_star(6)
    bl = [blocks.imag_pair(1, 1, (1, 0), label="a"),
          blocks.imag_pair(2, 1, (1, 1), label="b")]
    v, _ = run(spec, bl, [Decoration("b:+l", Status.MAXIMAL_POSITIVE)])
    assert v.outcome == "rigid_maximal"
    assert v.descriptor == "SO*(4) x SO(2)"


def test_so_star_even_m_flexible():
    spec = groups.so_star(8)
    bl = [blocks.imag_pair(1, 1, (1, 0)), blocks.zero_block(6, (3, 3))]
    v, _ = run(spec, bl, [Decoration("0", Status.MAXIMAL_POSITIVE)])
    assert v.flexible


def test_so_never_rigid():
    spec = groups.so(4, 2)
    bl = [blocks.imag_pair(1, 1, (1, 0)), blocks.zero_block(4, (2, 2))]
    v, _ = run(spec, bl, [Decoration("0", Status.MAXIMAL_POSITIVE)])
    assert v.flexible
    spec = groups.so(4, 2)
    bl = [blocks.imag_pair(1, 1, (1, 0), label="a"),
          blocks.imag_pair(2, 1, (1, 1), label="b")]
    v, _ = run(spec, bl, [Decoration("b:+l", Status.MAXIMAL_POSITIVE)])
    assert v.flexible


def test_genus_bound_flag():
    spec = groups.su(2, 3)
    bl = [blocks.sesq_self(1, (0, 1), (1, 0), label="D"),
          blocks.sesq_self(2, (1, 1), (2, 0), label="E")]
    sys = root_system(spec, bl)
    prop = propagate_constraints(spec, sys, [Decoration("E:il", Status.NON_MAXIMAL)])
    assert not classify(spec, SurfaceData(genus=2), sys, prop).genus_bound_ok
    assert classify(spec, SurfaceData(genus=spec.genus_bound()), sys, prop).genus_bound_ok


def test_certificates_attached_and_verified():
    spec = groups.su(2, 3)
    bl = [blocks.sesq_self(1, (0, 1), (1, 0), label="D"),
          blocks.sesq_self(2, (1, 1), (2, 0), label="E")]
    v, prop = run(spec, bl, [Decoration("E:il", Status.MAXIMAL_POSITIVE)])
    from liebalance.classify import balance_instance
    sys = root_system(spec, bl)
    assert v.certificate is not None and not v.certificate.balanced
    assert v.certificate.verify(balance_instance(sys, prop))


def test_abelian_so2c_builds_but_does_not_classify():
    # SO(2,C) is a torus: it has a root system (the oracle uses it) but no
    # adjoint weights, so they cannot span a nonzero c*
    spec = groups.so_c(2)
    sys = root_system(spec, [blocks.dual_pair(1)])
    assert sys.adjoint == [] and sys.dim_c == 2 and not spec.is_semisimple
    with pytest.raises(ScenarioError, match="adjoint weights do not span"):
        classify(spec, SurfaceData(genus=2), sys, propagate_constraints(spec, sys, []))
    v, _ = run(groups.so_c(3), [blocks.dual_pair(1), blocks.zero_block(1)])
    assert v.flexible and v.reason == "complex_group"


def test_abelian_so2c_with_zero_center_is_flexible():
    # with only the zero weight the center is 0, which nothing has to span
    sys = root_system(groups.so_c(2), [blocks.zero_block(2)])
    assert sys.adjoint == [] and sys.dim_c == 0
    v, _ = run(groups.so_c(2), [blocks.zero_block(2)])
    assert v.flexible and v.reason == "complex_group"


MIXED_SIGN_DATA = [
    (Family.SU, [blocks.sesq_self(1, (0, 1), (1, 0), label="D"),
                 blocks.sesq_self(2, (1, 1), (1, 0), label="E"),
                 blocks.sesq_self(2, (1, 1), (1, 0), label="F")],
     [Decoration("E:il", Status.MAXIMAL_POSITIVE),
      Decoration("F:il", Status.MAXIMAL_NEGATIVE)], "S(U(2,2) x U(1))"),
    (Family.SO_STAR, [blocks.imag_pair(1, 1, (1, 0), label="b0"),
                      blocks.imag_pair(2, 1, (1, 1), label="b1"),
                      blocks.zero_block(4, (2, 2))],
     [Decoration("b1:+l", Status.MAXIMAL_POSITIVE),
      Decoration("0", Status.MAXIMAL_NEGATIVE)], "SO*(8) x SO(2)"),
]


@pytest.mark.parametrize("family,bl,decos,descriptor", MIXED_SIGN_DATA,
                         ids=["su", "so_star"])
def test_rigid_shape_needs_one_maximal_sign(family, bl, decos, descriptor):
    """Toledo values add over a direct sum, so vanishing blocks of opposite
    maximal signs are not maximal together: the datum has no rigid shape,
    and it is flexible. With one sign it has the shape."""
    spec = blocks.spec_for(family, bl)
    system = root_system(spec, bl)

    def shape(decorations):
        prop = propagate_constraints(spec, system, decorations)
        return rigid_shape(spec, system.blocks, prop.block_status)

    assert shape(decos) is None
    same_sign = [Decoration(d.target, Status.MAXIMAL_POSITIVE) for d in decos]
    assert shape(same_sign) == descriptor
    verdict, _ = run(spec, bl, decos)
    assert verdict.flexible
    verdict, _ = run(spec, bl, same_sign)
    assert verdict.outcome == "rigid_maximal" and verdict.descriptor == descriptor


def _classify_with(sc, answer):
    """Classify a scenario with a `decide` that gives the same answer on
    every instance."""
    system = root_system(sc.spec, sc.blocks)
    prop = propagate_constraints(sc.spec, system, sc.decorations, sc.surface)
    return classify(sc.spec, sc.surface, system, prop,
                    lambda system, prop: BalancednessCertificate(answer))


def test_a_balanced_rigid_shape_raises():
    sc = scenario.load(str(Path(__file__).resolve().parents[1] / "demos" / "scenarios"
                           / "su23_rigid.json"))
    assert _classify_with(sc, False).descriptor == "S(U(2,2) x U(1))"
    with pytest.raises(InternalConsistencyError,
                       match=r"the rigid shape S\(U\(2,2\) x U\(1\)\) came out balanced"):
        _classify_with(sc, True)


@pytest.mark.parametrize("spec,bl,decos,reason", [
    (groups.so(4, 2), [blocks.imag_pair(1, 1, (1, 0)), blocks.zero_block(4, (2, 2))],
     [Decoration("0", Status.MAXIMAL_POSITIVE)], "balanced"),
    (groups.sp_r(4), [blocks.imag_pair(1, 1, (1, 0)), blocks.zero_block(2, (1, 1))],
     [Decoration("0", Status.MAXIMAL_POSITIVE)], "skew_ambient_form"),
], ids=["so", "sp_r_short_circuit"])
def test_an_unbalanced_flexible_datum_raises(spec, bl, decos, reason):
    sc = scenario.Scenario(spec, SurfaceData(genus=spec.genus_bound()), bl, decos)
    verdict = _classify_with(sc, True)
    assert verdict.flexible and verdict.reason == reason
    with pytest.raises(InternalConsistencyError, match="no rigid shape came out unbalanced"):
        _classify_with(sc, False)


def _as_rows(prop):
    return prop.block_status, [(p.root.label, s, p.forced_tag, p.derived_from,
                                p.flipped) for p, s in zip(prop.rules, prop.statuses)]


def test_substituted_statuses_equal_a_fresh_propagation():
    """Substituting an enumerated assignment into one propagation gives what
    propagating the assignment as extra decorations gives."""
    rng = random.Random(2024)
    statuses = list(Status)
    substituted = 0
    for family in Family:
        for _ in range(25):
            spec, bl = random_scenario(family, rng, 10)
            system = root_system(spec, bl)
            decos = []
            for label, r in system.standard_by_label().items():
                if r.negation in (d.target for d in decos) or rng.random() < 0.5:
                    continue
                vanishing = r.pure_imaginary and r.sig is not None and r.sig.is_vanishing()
                decos.append(Decoration(label, rng.choice(
                    statuses if vanishing else [Status.NON_MAXIMAL, Status.UNKNOWN])))
            prop = propagate_constraints(spec, system, decos)
            unknowns = prop.unknown_blocks()
            if len(unknowns) > 4:
                continue
            for assignment in assignments(unknowns):
                fresh = propagate_constraints(
                    spec, system, decos + [Decoration(l, s) for l, s in assignment])
                assert _as_rows(prop.substituted(assignment)) == \
                    _as_rows(fresh), (spec.describe(), decos, assignment)
                substituted += 1
    assert substituted > 200, substituted
