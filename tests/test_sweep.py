"""The per-sweep balancedness memo and the sweep CLI's output bytes."""

import hashlib
import importlib

import pytest

from liebalance import blocks, roots, sweep
from liebalance.cli import main
from liebalance.groups import Family

# the package exports the function `classify` under the module's name
classify_mod = importlib.import_module("liebalance.classify")


def _counting(monkeypatch):
    """Record every instance the sweep decides and every instance classify
    builds."""
    decided, built = [], []
    is_balanced = sweep.is_balanced
    balance_instance = classify_mod.balance_instance

    def counted(inst):
        decided.append(inst)
        return is_balanced(inst)

    def recorded(system, prop):
        inst = balance_instance(system, prop)
        built.append(inst)
        return inst

    monkeypatch.setattr(sweep, "is_balanced", counted)
    monkeypatch.setattr(classify_mod, "balance_instance", recorded)
    return decided, built


def test_each_instance_is_decided_once_per_sweep(monkeypatch):
    decided, built = _counting(monkeypatch)
    first = sweep.run_sweep(Family.SU, 5)
    first_calls, first_distinct = len(decided), len(set(built))
    decided.clear()
    built.clear()
    second = sweep.run_sweep(Family.SU, 5)
    assert second == first
    # no memo outlives its sweep: the second run decides everything again
    assert len(decided) == first_calls
    assert len(set(decided)) == len(decided) == len(set(built)) == first_distinct
    assert len(decided) < first.runs <= len(built)


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
    for combo in sweep._configurations(Family.SU, 5):
        bl = [factory(f"b{i}") for i, (_, _, factory) in enumerate(combo)]
        spec = blocks.spec_for(Family.SU, bl)
        skeletons.add(roots.skeleton(blocks.normalize_blocks(spec, bl)))
    assert first_built == len(skeletons) < first.configurations


def _unmemoized(monkeypatch, family, bound):
    """The sweep with classify deciding every instance afresh."""
    with monkeypatch.context() as m:
        m.setattr(sweep, "classify",
                  lambda spec, surface, system, decos, decide:
                  classify_mod.classify(spec, surface, system, decos))
        return sweep.run_sweep(family, bound)


@pytest.mark.parametrize("family,bound", [
    (Family.SU, 5), (Family.SO_STAR, 8), (Family.SP_R, 6), (Family.SL_R, 5)])
def test_memoized_sweep_equals_the_unmemoized_one(monkeypatch, family, bound):
    reference = _unmemoized(monkeypatch, family, bound)
    res = sweep.run_sweep(family, bound)
    assert vars(res) == vars(reference)
    assert res.ok


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
