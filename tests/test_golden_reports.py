"""Reports stay byte-identical: sha256 digests of rendered reports.

Two sets of reports are pinned in ``golden_reports.json``:

* the JSON report of every scenario in ``demos/scenarios``;
* the JSON report, oracle on, of ``random_scenario(family, Random(s), cap=8)``
  for s = 0..9 and every family, undecorated, at the family's genus bound.

A refactor that must not change any output keeps every digest. To record new
digests after an intended change of the reports, run

    PYTHONPATH=src python tests/test_golden_reports.py

and review the diff of ``golden_reports.json``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from liebalance import report, scenario
from liebalance.groups import Family
from liebalance.randomgen import random_scenario
from liebalance.scenario import Options, Scenario
from liebalance.toledo import SurfaceData

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden_reports.json"
DEMO_SCENARIOS = sorted((ROOT / "demos" / "scenarios").glob("*.json"))
SEEDS = range(10)
CAP = 8


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def demo_digest(path: Path) -> str:
    return _sha(report.render_json(report.run_scenario(scenario.load(str(path)))))


def random_digest(family, seed: int) -> str:
    spec, blocks = random_scenario(family, random.Random(seed), cap=CAP)
    sc = Scenario(spec, SurfaceData(genus=spec.genus_bound()), blocks,
                  options=Options(oracle=True))
    return _sha(report.render_json(report.run_scenario(sc)))


def all_digests():
    return {
        "demos": {p.name: demo_digest(p) for p in DEMO_SCENARIOS},
        "random": {fam.value: [random_digest(fam, s) for s in SEEDS]
                   for fam in Family},
    }


GOLDEN = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


@pytest.mark.parametrize("path", DEMO_SCENARIOS, ids=[p.name for p in DEMO_SCENARIOS])
def test_demo_report_digest(path):
    assert demo_digest(path) == GOLDEN["demos"][path.name]


@pytest.mark.parametrize("family", Family, ids=[f.name for f in Family])
def test_random_report_digests(family):
    assert [random_digest(family, s) for s in SEEDS] == GOLDEN["random"][family.value]


def test_every_demo_scenario_is_pinned():
    assert sorted(GOLDEN["demos"]) == [p.name for p in DEMO_SCENARIOS]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(all_digests(), indent=2) + "\n")
    sys.exit(0)
