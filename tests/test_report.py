import pytest

from liebalance import blocks, groups
from liebalance import report as report_mod
from liebalance.scenario import Scenario
from liebalance.toledo import SurfaceData


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
