"""The per-sweep balancedness memo and the sweep CLI's output bytes."""

import hashlib
import importlib

import pytest

from liebalance import sweep
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


# sha256 of `liebalance sweep <family> <bound>` standard output, recorded
# before the sweep decided each instance once
SWEEP_JSON_DIGESTS = {
    ("SU", 5): "27977d85ab6a287b4978255035187accf03752d5f00a3f3e42328b075a8874f8",
    ("SO_STAR", 8): "046aa9cb0e850425cfb72ebc14d39c0468d4e4fedf4701c02766e5780b08df2d",
}


@pytest.mark.parametrize("family,bound", sorted(SWEEP_JSON_DIGESTS))
def test_cli_sweep_json_bytes(capsys, family, bound):
    assert main(["sweep", family, str(bound)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_JSON_DIGESTS[family, bound]
