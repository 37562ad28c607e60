import hashlib
from pathlib import Path

import pytest

from liebalance import blocks, groups
from liebalance import report as report_mod
from liebalance.scenario import Scenario, load
from liebalance.toledo import Decoration, Status, SurfaceData


KIND_FACTORS = [
    (blocks.cls(2, 3), ["GL(3,C)"]),
    (blocks.real_cls(1, 2), ["GL(2,C)"]),
    (blocks.conj_pair(2, 1), ["GL(1,C)", "GL(1,C)"]),
    (blocks.sesq_self(3, (3, 0), (2, 1)), ["U(2,1)"]),
    (blocks.sesq_self(2, (1, 1), (2, 0)), ["U(2,0)"]),
    (blocks.sesq_self(2, (1, 1), (1, 1)), ["U(1,1)"]),
    (blocks.sesq_pair(2, 2), ["GL(2,C)", "GL(2,C)"]),
    (blocks.imag_pair(1, 2, (1, 1)), ["GL(2,C)"]),
    (blocks.split_pair(1, 3), ["GL(3,C)"]),
    (blocks.quad_pair(1, 1), ["GL(1,C)", "GL(1,C)"]),
    (blocks.dual_pair(2, 2), ["GL(2,C)"]),
    (blocks.zero_block(4, (2, 2)), []),
]


@pytest.mark.parametrize("block,factors", KIND_FACTORS,
                         ids=[f"{b.kind}-{i}" for i, (b, _) in enumerate(KIND_FACTORS)])
def test_block_factors_per_kind(block, factors):
    assert report_mod.block_factors(block) == factors


def test_factor_list_is_blockwise_concatenation():
    """The centralizer of a multi-block datum is the product over blocks, so
    the report lists each block's factors in block order, each with a
    one-dimensional center."""
    spec = groups.su(3, 3)
    bl = [blocks.sesq_self(1, (1, 0), (1, 1), label="a"),
          blocks.sesq_pair(2, 1, label="b")]
    res = report_mod.run_scenario(Scenario(spec, SurfaceData(2), bl))
    assert report_mod.to_json(res)["centralizer_factors"] == [
        {"block": "a", "factor": "U(1,1)", "center_dim": 1},
        {"block": "b", "factor": "GL(1,C)", "center_dim": 1},
        {"block": "b", "factor": "GL(1,C)", "center_dim": 1},
    ]


# sha256 of the text report of each demo scenario, as `liebalance --format
# text check` prints it
SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"
TEXT_REPORT_DIGESTS = {
    "so_star6_rigid": "835cd41a806a5f15cbb5f56eab30cd7a7b3e8aabac847b3c111f964f5f6c89bb",
    "sp4r_flexible": "cccd9eec8618e9c72c777a02dcdead6ba7b9df78483b9af70752cf0578189e92",
    "su23_rigid": "e43d2cd3102f852ae3c65e68146729bddfe49187e4dc85ac55f0d6bc526de2e0",
    "su23_undecided": "b8689070bd790976e4b810ffb982b255e9be14f86001cad46eb04cf9dfb2f52e",
}


@pytest.mark.parametrize("name", sorted(TEXT_REPORT_DIGESTS))
def test_text_reports_of_the_demo_scenarios(name):
    assert sorted(p.stem for p in SCENARIOS.glob("*.json")) == sorted(TEXT_REPORT_DIGESTS)
    text = report_mod.render_text(report_mod.run_scenario(load(str(SCENARIOS / f"{name}.json"))))
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_REPORT_DIGESTS[name]


def test_genus_bound_flag_is_reported():
    """The report says whether the surface's genus reaches the group's
    bound, in JSON and in text: false at genus 2, true at the bound."""
    spec = groups.su(2, 3)
    bl = [blocks.sesq_self(1, (0, 1), (1, 0), label="D"),
          blocks.sesq_self(2, (1, 1), (2, 0), label="E")]
    decos = [Decoration("E:il", Status.NON_MAXIMAL)]
    for genus, ok in ((2, False), (spec.genus_bound(), True)):
        res = report_mod.run_scenario(Scenario(spec, SurfaceData(genus), bl, decos))
        assert f'"genus_bound_ok": {str(ok).lower()},' in report_mod.render_json(res)
        assert f"bound ok: {ok}\n" in report_mod.render_text(res)
