import json
from fractions import Fraction

import pytest

from liebalance import blocks, groups
from liebalance.blocks import ScenarioError
from liebalance.cli import main
from liebalance.roots import root_system
from liebalance.toledo import (ALL_TAGS, Decoration, Status, SurfaceData,
                               TAG_DOUBLE, TAG_SPLIT_ORTH, TAG_VANISHING,
                               ToledoData, milnor_wood_bound, propagate_constraints,
                               toledo_conjugate, toledo_direct_sum,
                               toledo_hom_with_unitary)


def test_milnor_wood_values():
    assert milnor_wood_bound(SurfaceData(2), 2) == 4
    assert milnor_wood_bound(SurfaceData(2), 1) == 2
    assert milnor_wood_bound(SurfaceData(3), 3) == 12
    with pytest.raises(ValueError):
        milnor_wood_bound(SurfaceData(2), 0)


def test_combine_conjugate():
    t = ToledoData(Status.MAXIMAL_POSITIVE, Fraction(4), rank=2)
    c = toledo_conjugate(t)
    assert c.status == Status.MAXIMAL_NEGATIVE and c.value == -4 and c.rank == 2


def test_combine_direct_sum_cancellation():
    t = ToledoData(Status.MAXIMAL_POSITIVE, Fraction(3), rank=1)
    tbar = toledo_conjugate(t)
    s = toledo_direct_sum([t, tbar])
    assert s.value == 0 and s.status == Status.NON_MAXIMAL and s.rank == 2


def test_combine_direct_sum_same_sign():
    t1 = ToledoData(Status.MAXIMAL_POSITIVE, Fraction(2), rank=1)
    t2 = ToledoData(Status.MAXIMAL_POSITIVE, Fraction(4), rank=2)
    s = toledo_direct_sum([t1, t2])
    assert s.status == Status.MAXIMAL_POSITIVE and s.value == 6 and s.rank == 3
    # a bare status is a part of unknown value and rank
    s = toledo_direct_sum([t1, Status.MAXIMAL_POSITIVE])
    assert s.status == Status.MAXIMAL_POSITIVE and s.value is None and s.rank is None
    assert toledo_direct_sum([t1, Status.MAXIMAL_NEGATIVE]).status == Status.NON_MAXIMAL


def test_combine_unknown_never_fabricates():
    t1 = ToledoData(Status.MAXIMAL_POSITIVE, Fraction(2))
    t2 = ToledoData(Status.UNKNOWN)
    assert toledo_direct_sum([t1, t2]).status == Status.UNKNOWN


def test_combine_hom_with_unitary():
    t = ToledoData(Status.MAXIMAL_POSITIVE, Fraction(2), rank=1)
    h = toledo_hom_with_unitary(3, t)
    assert h.status == Status.MAXIMAL_POSITIVE and h.value == 6 and h.rank == 3


def test_exhaustive_small_combination_properties():
    statuses = [Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE,
                Status.NON_MAXIMAL, Status.UNKNOWN]
    for s1 in statuses:
        t1 = ToledoData(s1, Fraction(1))
        assert toledo_conjugate(toledo_conjugate(t1)).status == s1
        for s2 in statuses:
            t2 = ToledoData(s2, Fraction(-2))
            out = toledo_direct_sum([t1, t2])
            assert out.value == -1
            if Status.UNKNOWN in (s1, s2):
                assert out.status == Status.UNKNOWN
            elif s1 == s2 and s1 in (Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE):
                assert out.status == s1
            else:
                assert out.status == Status.NON_MAXIMAL
        for d in (1, 2, 5):
            assert toledo_hom_with_unitary(d, t1).status == s1
            assert toledo_hom_with_unitary(d, t1).value == d


def _su_rigid_system():
    spec = groups.su(2, 3)
    bl = [blocks.sesq_self(1, (0, 1), (1, 0), label="D"),
          blocks.sesq_self(2, (1, 1), (2, 0), label="E")]
    return spec, root_system(spec, bl)


def test_propagation_is_idempotent():
    spec, sys = _su_rigid_system()
    decos = [Decoration("E:il", Status.MAXIMAL_POSITIVE)]
    p1 = propagate_constraints(spec, sys, decos)
    as_decos = [Decoration(lbl, st) for lbl, st in p1.block_status.items()]
    p2 = propagate_constraints(spec, sys, as_decos)
    assert [(x.root.label, s, x.forced_tag) for x, s in zip(p1.rules, p1.statuses)] == \
           [(x.root.label, s, x.forced_tag) for x, s in zip(p2.rules, p2.statuses)]


def test_maximal_on_nonvanishing_rejected():
    spec, sys = _su_rigid_system()
    with pytest.raises(ScenarioError) as exc:
        propagate_constraints(spec, sys, [Decoration("D:il", Status.MAXIMAL_POSITIVE)])
    assert TAG_VANISHING in str(exc.value)


def test_double_weights_forced_with_tag():
    spec = groups.sp_r(4)
    sys = root_system(spec, [blocks.imag_pair(1, 1, (1, 0)),
                             blocks.zero_block(2, (1, 1))])
    prop = propagate_constraints(spec, sys, [])
    doubles = [(p, s) for p, s in zip(prop.rules, prop.statuses)
               if p.root.source[0] == "wedge"]
    assert doubles and all(s == Status.NON_MAXIMAL and
                           p.forced_tag == TAG_DOUBLE for p, s in doubles)


def test_nonvanishing_weight_spaces_forced():
    spec = groups.sl_r(4)
    sys = root_system(spec, [blocks.conj_pair(2, 1)])
    prop = propagate_constraints(spec, sys, [])
    pure = [p for p in prop.rules if p.root.pure_imaginary]
    assert pure and all(p.forced_tag == TAG_VANISHING for p in pure)


def test_split_orthogonal_pathway_forced():
    spec = groups.so(4, 2)
    sys = root_system(spec, [blocks.imag_pair(1, 1, (1, 0)),
                             blocks.zero_block(4, (2, 2))])
    prop = propagate_constraints(spec, sys,
                                 [Decoration("0", Status.MAXIMAL_POSITIVE)])
    zero_paths = [p for p in prop.rules if "0" in p.root.source]
    assert zero_paths and all(p.forced_tag == TAG_SPLIT_ORTH for p in zero_paths)


def test_parity_rule_kills_even_half_dimension():
    spec = groups.so_star(8)
    sys = root_system(spec, [blocks.imag_pair(1, 1, (1, 0)),
                             blocks.zero_block(6, (3, 3))])
    prop = propagate_constraints(spec, sys,
                                 [Decoration("0", Status.MAXIMAL_POSITIVE)])
    zero_paths = [(p, s) for p, s in zip(prop.rules, prop.statuses)
                  if "0" in p.root.source]
    assert zero_paths and all(s == Status.NON_MAXIMAL and
                              p.forced_tag == TAG_VANISHING for p, s in zero_paths)


def test_conjugation_symmetry_after_propagation():
    cases = [
        (groups.so_star(6), [blocks.imag_pair(1, 1, (1, 0)),
                             blocks.zero_block(4, (2, 2))],
         [Decoration("0", Status.MAXIMAL_POSITIVE)]),
        (groups.so(4, 2), [blocks.imag_pair(1, 1, (1, 0)),
                           blocks.zero_block(4, (2, 2))],
         [Decoration("0", Status.MAXIMAL_POSITIVE)]),
        (groups.su(2, 2), [blocks.sesq_self(1, (1, 0), (1, 0), label="a"),
                           blocks.sesq_self(1, (0, 1), (1, 0), label="b"),
                           blocks.sesq_self(2, (1, 1), (1, 0), label="c")],
         [Decoration("c:il", Status.MAXIMAL_POSITIVE)]),
    ]
    for spec, bl, decos in cases:
        sys = root_system(spec, bl)
        prop = propagate_constraints(spec, sys, decos)
        lookup = {(p.root.re, p.root.im): s for p, s in zip(prop.rules, prop.statuses)}
        for (re, im), st in lookup.items():
            neg = (tuple(-x for x in re), tuple(-x for x in im))
            assert neg in lookup
            if st in (Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE):
                assert lookup[neg] == st.flip()
            else:
                assert lookup[neg] == st


def test_forced_statuses_carry_known_tags():
    spec, sys = _su_rigid_system()
    prop = propagate_constraints(spec, sys, [Decoration("E:il", Status.MAXIMAL_POSITIVE)])
    for p in prop.rules:
        if p.forced_tag is not None:
            assert p.forced_tag in ALL_TAGS


def test_milnor_wood_rejection_in_propagation():
    spec, sys = _su_rigid_system()
    surf = SurfaceData(2)
    ok = Decoration("E:il", Status.MAXIMAL_POSITIVE, Fraction(4))
    propagate_constraints(spec, sys, [ok], surf)
    bad = Decoration("E:il", Status.MAXIMAL_POSITIVE, Fraction(5))
    with pytest.raises(ScenarioError):
        propagate_constraints(spec, sys, [bad], surf)


def test_adjoint_level_decoration_is_translated():
    spec, sys = _su_rigid_system()
    prop = propagate_constraints(
        spec, sys, [Decoration("D:il->E:il", Status.MAXIMAL_NEGATIVE)])
    assert prop.block_status["E:il"] == Status.MAXIMAL_POSITIVE

    with pytest.raises(ScenarioError):
        propagate_constraints(spec, sys, [
            Decoration("E:il", Status.MAXIMAL_POSITIVE),
            Decoration("D:il->E:il", Status.MAXIMAL_POSITIVE),
        ])


def test_contradicting_forced_status_reports_rule():
    spec = groups.sp_r(4)
    sys = root_system(spec, [blocks.imag_pair(1, 1, (1, 0)),
                             blocks.zero_block(2, (1, 1))])
    wedge_label = next(r.label for r in sys.adjoint if r.source[0] == "wedge")
    with pytest.raises(ScenarioError) as exc:
        propagate_constraints(spec, sys,
                              [Decoration(wedge_label, Status.MAXIMAL_POSITIVE)])
    assert TAG_DOUBLE in str(exc.value)


ADJOINT_DECORATION_DATA = [
    ({"family": "SO_STAR", "n": 6},
     [{"kind": "imag_pair", "dim": 1, "mult": 1, "sig": [1, 0], "label": "b0"},
      {"kind": "imag_pair", "dim": 1, "mult": 2, "sig": [1, 1], "label": "b1"}]),
    ({"family": "SO_STAR", "n": 10},
     [{"kind": "imag_pair", "dim": 1, "mult": 1, "sig": [1, 0], "label": "b0"},
      {"kind": "imag_pair", "dim": 2, "mult": 1, "sig": [1, 1], "label": "b1"},
      {"kind": "zero", "dim": 4, "sig": [2, 2], "label": "z"}]),
]


@pytest.mark.parametrize("group,block_docs", ADJOINT_DECORATION_DATA,
                         ids=["so_star6", "so_star10"])
def test_adjoint_decoration_agrees_with_its_standard_weight(tmp_path, capsys,
                                                            group, block_docs):
    """Decorating an undecided adjoint weight is the same as decorating the
    standard weight it derives from (flipped where the derivation flips),
    on either weight of a +-l pair."""
    def check(decorations):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps({
            "schema": "liebalance-scenario/1", "group": group,
            "surface": {"genus": 2}, "blocks": block_docs,
            "decorations": decorations}))
        code = main(["check", str(path)])
        captured = capsys.readouterr()
        assert code in (0, 2), captured.err
        rep = json.loads(captured.out)
        del rep["scenario"]
        return code, rep

    _, undecorated = check([])
    undecided = [w for w in undecorated["adjoint_weights"]
                 if w["status"] == "unknown" and "derived_from" in w]
    assert {"b1:+l", "b1:-l"} <= {w["derived_from"] for w in undecided}
    for w in undecided:
        for status in (Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE,
                       Status.NON_MAXIMAL):
            on_standard = status.flip() if w["derived_flipped"] else status
            assert check([{"target": w["label"], "status": status.value}]) == \
                check([{"target": w["derived_from"], "status": on_standard.value}])


def _so42_pairs():
    spec = groups.so(4, 2)
    return spec, root_system(spec, [blocks.imag_pair(1, 1, (1, 0), label="a"),
                                    blocks.imag_pair(2, 1, (1, 1), label="b")])


def test_mirror_conflict_names_both_decorations():
    """In SO(p,q) the status on -l is the conjugate of the one on +l, so both
    maximal positive is a conflict, reported with both targets."""
    spec, sys = _so42_pairs()
    assert spec.eta_epsilon == 1
    with pytest.raises(ScenarioError,
                       match="decoration on b:-l conflicts with another decoration on b:\\+l"):
        propagate_constraints(spec, sys, [Decoration("b:+l", Status.MAXIMAL_POSITIVE),
                                          Decoration("b:-l", Status.MAXIMAL_POSITIVE)])
    # the conjugate status on -l is the mirror itself, not a conflict
    prop = propagate_constraints(spec, sys, [Decoration("b:+l", Status.MAXIMAL_POSITIVE),
                                             Decoration("b:-l", Status.MAXIMAL_NEGATIVE)])
    assert prop.block_status["b:-l"] == Status.MAXIMAL_NEGATIVE


def test_the_same_setting_twice_is_accepted():
    spec, sys = _su_rigid_system()
    once = propagate_constraints(spec, sys, [Decoration("E:il", Status.MAXIMAL_POSITIVE)])
    twice = propagate_constraints(spec, sys, [Decoration("E:il", Status.MAXIMAL_POSITIVE)] * 2)
    assert twice == once
    # through the adjoint weight that reads E:il flipped, the same setting again
    via_adjoint = propagate_constraints(spec, sys, [
        Decoration("E:il", Status.MAXIMAL_POSITIVE),
        Decoration("D:il->E:il", Status.MAXIMAL_NEGATIVE)])
    assert via_adjoint == once


def test_an_explicit_unknown_never_overrides():
    spec, sys = _so42_pairs()
    for target in ("b:+l", "b:-l"):
        prop = propagate_constraints(spec, sys, [
            Decoration("b:+l", Status.MAXIMAL_POSITIVE), Decoration(target, Status.UNKNOWN)])
        assert prop.block_status["b:+l"] == Status.MAXIMAL_POSITIVE
        assert prop.block_status["b:-l"] == Status.MAXIMAL_NEGATIVE
    undecorated = propagate_constraints(spec, sys, [])
    assert propagate_constraints(spec, sys, [Decoration("b:+l", Status.UNKNOWN)]) == undecorated
    assert undecorated.block_status["b:+l"] == Status.UNKNOWN


def test_an_adjoint_decoration_conflicting_with_a_standard_one_raises():
    spec, sys = _su_rigid_system()
    for decos in ([Decoration("E:il", Status.MAXIMAL_POSITIVE),
                   Decoration("D:il->E:il", Status.MAXIMAL_POSITIVE)],
                  [Decoration("D:il->E:il", Status.NON_MAXIMAL),
                   Decoration("E:il", Status.MAXIMAL_NEGATIVE)]):
        with pytest.raises(ScenarioError,
                           match=f"decoration on {decos[1].target} conflicts with "
                                 f"another decoration on {decos[0].target}"):
            propagate_constraints(spec, sys, decos)


def _law_status(std, prop, root):
    """The status of the adjoint weight on Hom(I_a, I_b) by the Toledo laws:
    Hom with a definite side is Hom with a unitary representation, which keeps
    the other side's Toledo data, conjugated when the definite side is the
    source with a negative form or the target with a positive one."""
    _, a, b = root.source
    definite, other, conjugated = (
        (std[a], b, std[a].sig.pos == 0)
        if std[a].sig is not None and std[a].sig.is_definite()
        else (std[b], a, std[b].sig.pos > 0))
    t = toledo_hom_with_unitary(definite.dim, ToledoData(prop.block_status[other]))
    return (toledo_conjugate(t) if conjugated else t).status


def test_propagation_follows_the_toledo_laws():
    """Every derived adjoint status, and every status on -l, is what the
    Toledo arithmetic laws make of the status it reads: the rules restate
    `toledo_conjugate` and `toledo_hom_with_unitary` and nothing else."""
    import random

    from liebalance.groups import Family
    from liebalance.randomgen import random_scenario

    rng = random.Random(11)
    maximal = (Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE)
    conjugated = kept = 0
    for family in Family:
        for _ in range(100):
            spec, bl = random_scenario(family, rng, 10)
            system = root_system(spec, bl)
            std = system.standard_by_label()
            decos = [Decoration(label, rng.choice(maximal + (Status.NON_MAXIMAL,)))
                     for label, r in std.items()
                     if r.pure_imaginary and r.sig is not None and r.sig.is_vanishing()
                     and label <= (r.negation or label) and rng.random() < 0.7]
            prop = propagate_constraints(spec, system, decos)
            for label, r in std.items():
                s = prop.block_status[label]
                if r.negation and r.negation != label:
                    mirror = s if spec.eta_epsilon == -1 else \
                        toledo_conjugate(ToledoData(s)).status
                    assert prop.block_status[r.negation] == mirror, (spec.describe(), label)
            for p, status in zip(prop.rules, prop.statuses):
                if p.derived_from is None:
                    continue
                assert p.derived_from in p.root.source[1:]
                # so every enumerated unknown may take each status
                assert std[p.derived_from].sig.is_vanishing(), (spec.describe(), p.root.label)
                assert status == _law_status(std, prop, p.root), \
                    (spec.describe(), p.root.label)
                if status in maximal:
                    if status != prop.block_status[p.derived_from]:
                        conjugated += 1
                    else:
                        kept += 1
    assert conjugated >= 20 and kept >= 20, (conjugated, kept)
