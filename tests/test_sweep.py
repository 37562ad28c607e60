"""The per-sweep balancedness memo, the unit-block enumeration against the
per-family one it replaced, the sweep CLI's output bytes, and a sweep's
check of every decision against the rigidity theorem."""

import hashlib
import itertools
import random
from typing import Iterable, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from liebalance import balance, blocks, roots, sweep
from liebalance import classify as classify_mod
from liebalance import groups
from liebalance.cli import main
from liebalance.groups import Family
from liebalance.randomgen import random_scenario
from liebalance.toledo import Decoration, Status, propagate_constraints


def _recording(monkeypatch):
    """Record every instance the sweep decides, every key it forms, and for
    each run the canonical key of the instance `check` would build for it."""
    decided, formed, expected = [], [], []
    is_balanced = sweep.is_balanced
    canonical_key_of = sweep.canonical_key_of

    def counted(inst):
        decided.append(inst)
        return is_balanced(inst)

    def formed_key(*args):
        formed.append(canonical_key_of(*args))
        return formed[-1]

    def recorded(prop, decide):
        def reference(prop):
            inst = classify_mod.balance_instance(prop)
            expected.append(balance.canonical_key(inst))
            return decide(prop)
        return classify_mod.classify(prop, reference)

    monkeypatch.setattr(sweep, "is_balanced", counted)
    monkeypatch.setattr(sweep, "canonical_key_of", formed_key)
    monkeypatch.setattr(sweep, "classify", recorded)
    return decided, formed, expected


def test_each_instance_is_decided_once_per_sweep(monkeypatch):
    """A sweep decides one canonical instance per distinct key among its
    runs' keys, and keeps nothing into a second sweep."""
    decided, formed, expected = _recording(monkeypatch)
    first = sweep.run_sweep(Family.SU, 5)
    first_decided = len(decided)
    assert formed == expected and len(formed) == first.runs
    assert [balance.canonical_key(inst) for inst in decided] == \
        [(inst.ambient_dim, inst.p_vectors, inst.n_vectors) for inst in decided]
    assert {balance.canonical_key(inst) for inst in decided} == set(formed)
    assert len(decided) == len(set(formed)) < first.runs
    decided.clear()
    second = sweep.run_sweep(Family.SU, 5)
    assert second == first
    # no memo outlives its sweep: the second run decides everything again
    assert len(decided) == first_decided


@pytest.mark.parametrize("family,bound", [
    (Family.SU, 6), (Family.SO_STAR, 8), (Family.SP_R, 6), (Family.SL_R, 6),
    (Family.SO, 6), (Family.SP, 6), (Family.SL_H, 6)])
def test_each_runs_integer_key_is_its_instances_canonical_key(monkeypatch, family, bound):
    """The key a run forms from the geometry's integer adjoint parts and its
    statuses is the canonical key of the Fraction instance `check` builds."""
    _decided, formed, expected = _recording(monkeypatch)
    res = sweep.run_sweep(family, bound)
    assert formed == expected
    assert len(formed) == res.runs and res.ok


@settings(max_examples=60)
@given(st.sampled_from(list(Family)), st.integers(0, 10 ** 6))
def test_rules_and_integer_parts_follow_the_adjoint_order(family, seed):
    """A sweep's `decide` reads `prop.statuses` against `system.adjoint_parts`:
    the rules keep the order of `system.adjoint`, and one positive integer
    denominator carries each integer part onto its weight's exact (re, im)."""
    system = roots.root_system(*random_scenario(family, random.Random(seed)))
    prop = propagate_constraints(system, [])
    assert [r.root for r in prop.rules] == system.adjoint
    assert len(system.adjoint_parts) == len(system.adjoint)
    pairs = [(x, f) for (re, im), r in zip(system.adjoint_parts, system.adjoint)
             for x, f in zip(re + im, r.re + r.im)]
    assert all((x == 0) == (f == 0) for x, f in pairs)
    ratios = {x / f for x, f in pairs if f}
    assert len(ratios) <= 1
    assert all(d > 0 and d.denominator == 1 for d in ratios)


def test_each_skeleton_gets_one_geometry_per_sweep(monkeypatch):
    built = []
    geometry = roots.WeightGeometry

    def counted(*args):
        built.append(args)
        return geometry(*args)

    monkeypatch.setattr(roots, "WeightGeometry", counted)
    first = sweep.run_sweep(Family.SU, 5)
    first_built = len(built)
    built.clear()
    second = sweep.run_sweep(Family.SU, 5)
    assert second == first
    # no memo outlives its sweep: the second run builds every geometry again
    assert len(built) == first_built
    skeletons = set()
    for bl in sweep._configurations(Family.SU, 5):
        spec = blocks.spec_for(Family.SU, bl)
        skeletons.add(roots.skeleton(blocks.normalize_blocks(spec, bl)))
    assert first_built == len(skeletons) < first.configurations


def _unmemoized(monkeypatch, family, bound):
    """The sweep with classify deciding every instance afresh."""
    with monkeypatch.context() as m:
        m.setattr(sweep, "classify", lambda prop, decide: classify_mod.classify(prop))
        return sweep.run_sweep(family, bound)


@pytest.mark.parametrize("family,bound", [
    (Family.SU, 5), (Family.SO_STAR, 8), (Family.SP_R, 6), (Family.SL_R, 5),
    (Family.SO, 6), (Family.SP, 6), (Family.SL_H, 6)])
def test_memoized_sweep_equals_the_unmemoized_one(monkeypatch, family, bound):
    reference = _unmemoized(monkeypatch, family, bound)
    res = sweep.run_sweep(family, bound)
    assert vars(res) == vars(reference)
    assert res.ok


def _rows(prop):
    return prop.block_status, [(p.root.label, s) for p, s in zip(prop.rules, prop.statuses)]


def _scanned_targets(system):
    """The weight scan the sweep once took its decoration targets from, kept
    as the reference: each pure imaginary standard weight of vanishing
    signature, one of each pair +-l, then the zero weight if it vanishes."""
    targets = []
    for r in system.standard:
        if r.pure_imaginary and r.sig is not None and r.sig.is_vanishing() \
                and r.negation not in targets:
            targets.append(r.label)
    z = system.zero
    if z is not None and z.sig is not None and z.sig.is_vanishing():
        targets.append("0")
    return targets


def _read(verdict):
    """A verdict as a sweep reads it: there the certificate belongs to the
    canonical instance, so only its outcome is compared."""
    cert = verdict.certificate
    return {**vars(verdict), "certificate": None if cert is None else cert.balanced}


@pytest.mark.parametrize("family,bound", [(Family.SU, 5), (Family.SO_STAR, 8)])
def test_substituted_runs_equal_decorated_ones(monkeypatch, family, bound):
    """Each run of a sweep substitutes its assignment into the configuration's
    one propagation. It reaches the verdict, and the statuses, that
    propagating the assignment as decorations and classifying give; its
    certificate has the same outcome."""
    reached = []

    def recorded(prop, decide):
        verdict = classify_mod.classify(prop, decide)
        reached.append((prop.system.spec.describe(), _rows(prop), _read(verdict)))
        return verdict

    monkeypatch.setattr(sweep, "classify", recorded)
    res = sweep.run_sweep(family, bound)
    reference, rigid = [], []
    statuses = (Status.NON_MAXIMAL, Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE)
    for bl in sweep._configurations(family, bound):
        spec = blocks.spec_for(family, bl)
        system = roots.root_system(spec, bl)
        # one weight of each vanishing block, so every target vanishes
        targets = sweep._decoration_targets(system)
        assert targets == _scanned_targets(system), spec.describe()
        for combo in itertools.product(statuses, repeat=len(targets)):
            decos = [Decoration(t, st) for t, st in zip(targets, combo)]
            prop = propagate_constraints(system, decos)
            verdict = classify_mod.classify(prop)
            reference.append((spec.describe(), _rows(prop), _read(verdict)))
            if verdict.outcome == "rigid_maximal":
                rigid.append([f"{d.target}={d.status.value}" for d in decos])
    assert len(reached) == len(reference) == res.runs
    assert reached == reference
    assert [r["decorations"] for r in res.rigid] == rigid and rigid


# -- the unit blocks: one rule set, no per-family branches ------------------

def _variants(family: Family, bound: int):
    """The per-family enumeration the sweep used before it read its unit
    blocks off `blocks.check_block`, kept as the reference. Each variant:
    (key, cost, factory) where factory(label) -> Block."""
    out = []
    if family in (Family.SL_R, Family.SL_H):
        quat = family == Family.SL_H
        for d in range(1, bound + 1):
            if quat and d % 2:
                continue
            out.append((("real", d), d,
                        lambda lbl, d=d: blocks.real_cls(d, 1, lbl)))
        for d in range(1, bound // 2 + 1):
            out.append((("pair", d), 2 * d,
                        lambda lbl, d=d: blocks.conj_pair(d, 1, lbl)))
        return out
    if family == Family.SU:
        for d in range(1, bound + 1):
            for a in range(d + 1):
                out.append((("self", d, a), d,
                            lambda lbl, d=d, a=a: blocks.sesq_self(d, (a, d - a), (1, 0), lbl)))
        for d in range(1, bound // 2 + 1):
            out.append((("pair", d), 2 * d,
                        lambda lbl, d=d: blocks.sesq_pair(d, 1, lbl)))
        return out
    if family in (Family.SO, Family.SP_R, Family.SO_STAR, Family.SP):
        quat = family in (Family.SO_STAR, Family.SP)
        skew_s = family in (Family.SP_R, Family.SO_STAR)
        for d in range(1, bound // 2 + 1):
            for a in range(d + 1):
                out.append((("imag", d, a), 2 * d,
                            lambda lbl, d=d, a=a: blocks.imag_pair(d, 1, (a, d - a), lbl)))
        for d in range(1, bound // 2 + 1):
            if quat and d % 2:
                continue
            out.append((("split", d), 2 * d,
                        lambda lbl, d=d: blocks.split_pair(d, 1, lbl)))
        for d in range(1, bound // 4 + 1):
            out.append((("quad", d), 4 * d,
                        lambda lbl, d=d: blocks.quad_pair(d, 1, lbl)))
        for d0 in range(1, bound + 1):
            if (quat or family == Family.SP_R) and d0 % 2:
                continue
            sigs: Iterable[Tuple[int, int]]
            if skew_s:
                sigs = [(d0 // 2, d0 // 2)]
            elif family == Family.SP:
                sigs = [(a, d0 - a) for a in range(0, d0 + 1, 2) if (d0 - a) % 2 == 0]
            else:
                sigs = [(a, d0 - a) for a in range(d0 + 1)]
            for sig in sigs:
                out.append((("zero", d0, sig), d0,
                            lambda lbl, d0=d0, sig=sig: blocks.zero_block(d0, sig, lbl)))
        return out
    raise ValueError(f"no sweep is defined for {family.value}")


def _reference_configurations(family: Family, bound: int):
    """The configurations the reference variants give, each a list of
    (variant index, label)."""
    variants = _variants(family, bound)
    least = groups.FAMILIES[family].min_dim
    results = []

    def rec(start, chosen, total, zero_used):
        if total > bound:
            return
        if chosen and total >= least:
            results.append([(v, f"b{i}") for i, v in enumerate(chosen)])
        for i in range(start, len(variants)):
            key, cost, _ = variants[i]
            if total + cost > bound:
                continue
            if key[0] == "zero":
                if zero_used:
                    continue
                rec(i + 1, chosen + [i], total + cost, True)
            else:
                rec(i, chosen + [i], total + cost, zero_used)

    rec(0, [], 0, False)
    return results


def _fields(b):
    return b.kind, b.dim, b.mult, b.sig, b.class_sig, b.mult_sig


SWEPT = [Family.SL_R, Family.SL_H, Family.SU, Family.SO, Family.SP_R, Family.SO_STAR,
         Family.SP]


@pytest.mark.parametrize("family", SWEPT, ids=lambda f: f.value)
def test_unit_blocks_and_configurations_equal_the_per_family_ones(family):
    configurations = 0
    for bound in range(2, sweep.MAX_SWEEP_BOUND + 1):
        reference = [_fields(factory("")) for _, _, factory in _variants(family, bound)]
        assert [_fields(b) for b in sweep._unit_blocks(family, bound)] == reference, bound
        expected = [[(*reference[v], label) for v, label in combo]
                    for combo in _reference_configurations(family, bound)]
        found = [[(*_fields(b), b.label) for b in bl]
                 for bl in sweep._configurations(family, bound)]
        assert found == expected, bound
        configurations += len(found)
    # recorded on the per-family enumeration: 227,224 in all
    assert configurations == {
        Family.SL_R: 4688, Family.SL_H: 796, Family.SU: 173476, Family.SO: 29687,
        Family.SP_R: 7409, Family.SO_STAR: 4166, Family.SP: 7002}[family]


# sha256 of `liebalance sweep <family> <bound>` standard output: SU 5 and
# SO_STAR 8 recorded before the sweep decided each instance once, the bench
# `sweep` plan before it built each weight geometry once
SWEEP_JSON_DIGESTS = {
    ("SU", 5): "27977d85ab6a287b4978255035187accf03752d5f00a3f3e42328b075a8874f8",
    ("SO_STAR", 8): "046aa9cb0e850425cfb72ebc14d39c0468d4e4fedf4701c02766e5780b08df2d",
    ("SU", 6): "0c8d3408064b5325bd113a448cee6112ec79c5b5a2276232040a6c6dc86db28f",
    ("SO", 7): "20c7a7810a2566c968aa23d9d2880b0cea867cd34774c3d3c7083b4e10c3f09c",
    ("SP_R", 8): "59afdde1e41f7cf0ff6d340f58765d2d22aadcba769a10445385f7ef9942df7a",
    ("SO_STAR", 10): "d96374c22b4d1f63d7e346aacd86d53c4532a34c76975cc62b93386f4b9e2933",
    ("SL_R", 7): "ab4dd969d65946f63d7f0b1ae9c09d76da3a6b04a36da13d0b97d27d2f3dbc2d",
    ("SL_H", 8): "98840a0ebb55db5495203f46df44c9cf740e37edfe6d5c2848e953179421570f",
    ("SP", 8): "5ea0521645990c0a38b3dd9fbae18a0be80af6f56267a68a8d04e820fdf74425",
}


@pytest.mark.parametrize("family,bound", sorted(SWEEP_JSON_DIGESTS))
def test_cli_sweep_json_bytes(capsys, family, bound):
    assert main(["sweep", family, str(bound)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_JSON_DIGESTS[family, bound]


def test_sweeps_catch_a_wrong_statement_of_the_theorem(monkeypatch, capsys):
    """A sweep holds every decision to `classify.rigid_shape` both ways: with
    no rigid shape anywhere the SU rigid data are unbalanced outside it, and
    with a rigid shape on every SO* datum the flexible ones contradict it."""
    monkeypatch.setattr(classify_mod, "rigid_shape", lambda prop: None)
    res = sweep.run_sweep(Family.SU, 4)
    assert res.mismatches and not res.ok
    assert all("no rigid shape came out unbalanced" in m for m in res.mismatches)
    assert main(["sweep", "SU", "4"]) == 4
    capsys.readouterr()

    def everywhere(prop):
        return "SO*(x) x SO(2)" if prop.system.spec.family == Family.SO_STAR else None

    monkeypatch.setattr(classify_mod, "rigid_shape", everywhere)
    res = sweep.run_sweep(Family.SO_STAR, 6)
    assert res.mismatches and not res.ok
    assert any("came out balanced" in m for m in res.mismatches)
