import copy
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebalance import blocks, groups
from liebalance import report as report_mod
from liebalance import scenario as sc_mod
from liebalance.blocks import ScenarioError
from liebalance.cli import main
from liebalance.groups import Family
from liebalance.randomgen import random_scenario
from liebalance.roots import root_system


def su23_scenario(status="maximal_positive", oracle=False):
    return {
        "schema": "liebalance-scenario/1",
        "group": {"family": "SU", "p": 2, "q": 3},
        "surface": {"genus": 1152},
        "blocks": [
            {"kind": "sesq_self", "dim": 1, "class_sig": [0, 1],
             "mult_sig": [1, 0], "label": "D"},
            {"kind": "sesq_self", "dim": 2, "class_sig": [1, 1],
             "mult_sig": [2, 0], "label": "E"},
        ],
        "decorations": [{"target": "E:il", "status": status}],
        "options": {"oracle": oracle},
    }


def test_scenario_round_trip():
    sc = sc_mod.from_json(su23_scenario())
    again = sc_mod.from_json(json.loads(json.dumps(sc_mod.to_json(sc))))
    assert sc_mod.to_json(again) == sc_mod.to_json(sc)


def test_run_scenario_rigid():
    sc = sc_mod.from_json(su23_scenario())
    res = report_mod.run_scenario(sc)
    assert res.verdict.outcome == "rigid_maximal"
    assert res.verdict.descriptor == "S(U(2,2) x U(1))"
    assert res.exit_code() == 0


def test_reports_are_deterministic():
    sc = sc_mod.from_json(su23_scenario())
    out1 = report_mod.render_json(report_mod.run_scenario(sc))
    out2 = report_mod.render_json(report_mod.run_scenario(sc))
    assert out1 == out2


def test_report_round_trips_to_same_verdict():
    sc = sc_mod.from_json(su23_scenario())
    res = report_mod.run_scenario(sc)
    echoed = report_mod.to_json(res)["scenario"]
    res2 = report_mod.run_scenario(sc_mod.from_json(echoed))
    assert report_mod.to_json(res2)["verdict"] == report_mod.to_json(res)["verdict"]


def test_schema_version_checked():
    bad = su23_scenario()
    bad["schema"] = "something/9"
    with pytest.raises(ScenarioError):
        sc_mod.from_json(bad)


def test_center_dim_crosscheck_runs():
    cases = [
        (groups.su(2, 3), [blocks.sesq_self(1, (0, 1), (1, 0), label="D"),
                           blocks.sesq_self(2, (1, 1), (2, 0), label="E")]),
        # vanishing class signature: the factor is U(1,1), from the
        # multiplicity form, not U(0,2)
        (groups.su(2, 2), [blocks.sesq_self(2, (1, 1), (1, 1))]),
        (groups.so(4, 2), [blocks.imag_pair(1, 1, (1, 0)),
                           blocks.zero_block(4, (2, 2))]),
        (groups.sl_c(6), [blocks.cls(1), blocks.cls(2), blocks.cls(3)]),
        (groups.so_c(8), [blocks.dual_pair(2, 1), blocks.dual_pair(1, 2)]),
        (groups.sl_r(5), [blocks.conj_pair(1, 2), blocks.real_cls(1, 1)]),
    ]
    cases += [random_scenario(family, random.Random(s), cap=12)
              for family in Family for s in range(20)]
    for spec, bl in cases:
        system = root_system(spec, bl)
        total, dim_c = report_mod.center_dim_crosscheck(system)
        assert total == dim_c, spec.describe()
        for b in system.blocks:
            if b.kind == "sesq_self":
                assert report_mod.block_factors(b) == \
                    [f"U({b.mult_sig.pos},{b.mult_sig.neg})"]


def test_cli_check_exit_codes(tmp_path, capsys):
    path = tmp_path / "sc.json"

    path.write_text(json.dumps(su23_scenario()))
    assert main(["--format", "text", "check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rigid_maximal" in out and "S(U(2,2) x U(1))" in out

    sc = su23_scenario()
    sc["decorations"] = []
    path.write_text(json.dumps(sc))
    assert main(["check", str(path)]) == 2  # indeterminate

    sc = su23_scenario()
    sc["blocks"][0]["dim"] = 2  # dimension mismatch
    path.write_text(json.dumps(sc))
    assert main(["check", str(path)]) == 3

    path.write_text("{ not json")
    assert main(["check", str(path)]) == 3


def test_cli_check_with_oracle(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(su23_scenario(oracle=True)))
    assert main(["check", str(path)]) == 0


@pytest.mark.parametrize("oracle, flags", [(True, []), (False, ["--oracle"])],
                         ids=["file", "flag"])
def test_cli_check_oracle_cap_below_the_group_exits_3(tmp_path, capsys, oracle, flags):
    # the cap is the scenario's own limit, so a group above it is bad input
    sc = su23_scenario(oracle=oracle)
    sc["options"]["cap"] = 3
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(sc))
    assert main(["check", str(path), *flags]) == 3
    err = capsys.readouterr().err
    assert "validation error: oracle cap 3 is below the ambient dimension 5 of SU(2,3)" in err
    # without the oracle the cap asks for nothing
    assert main(["check", str(path), "--no-oracle"]) == 0


def test_cli_sweep(capsys):
    assert main(["--format", "text", "sweep", "SL_H", "6"]) == 0
    out = capsys.readouterr().out
    assert "matches the expected rigid list" in out
    assert main(["sweep", "NOPE", "4"]) == 3
    # the complex groups have no sweep
    for family in ("SL_C", "SO_C", "SP_C"):
        assert main(["sweep", family, "4"]) == 3
        assert "no sweep is defined" in capsys.readouterr().err


def test_cli_verify_appendix(capsys):
    assert main(["--format", "text", "verify-appendix"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_cli_oracle_small(capsys):
    assert main(["--format", "text", "oracle", "--instances", "1", "--seed", "5"]) == 0
    assert "0 disagreements" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--tolerance", "-1"],
    ["--tolerance", "nan"],
    ["--tolerance", "0"],
    ["--cap", "0"],
    ["--cap", "3"],
    ["--cap", "-2"],
    ["--instances", "-3"],
])
def test_cli_oracle_bad_flags_exit_3(capsys, flags):
    assert main(["oracle", "--instances", "1", *flags]) == 3
    assert "validation error" in capsys.readouterr().err


def test_block_json_errors():
    with pytest.raises(ScenarioError):
        sc_mod.block_from_json({"kind": "wat", "dim": 1})
    with pytest.raises(ScenarioError):
        sc_mod.block_from_json({"kind": "sesq_self", "dim": 1})
    for kind in (["cls"], {"kind": "cls"}, 3, None):
        with pytest.raises(ScenarioError, match="unknown block kind"):
            sc_mod.block_from_json({"kind": kind, "dim": 1})
    with pytest.raises(ScenarioError):
        sc_mod.group_from_json({"family": "SU", "p": 1})


def _check_json(tmp_path, capsys, doc):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_cli_check_su_free_weight_pair(tmp_path, capsys):
    # a sesq_pair block contributes two GL(r,C) factors, like conj_pair
    code, rep = _check_json(tmp_path, capsys, {
        "schema": "liebalance-scenario/1",
        "group": {"family": "SU", "p": 1, "q": 1},
        "surface": {"genus": 2},
        "blocks": [{"kind": "sesq_pair", "dim": 1, "mult": 1, "label": "b0"}],
        "options": {"oracle": True},
    })
    assert code == 0
    assert [f["factor"] for f in rep["centralizer_factors"]] == ["GL(1,C)", "GL(1,C)"]
    assert rep["verdict"]["outcome"] == "flexible"
    assert rep["oracle"] == {"checked": True, "problems": []}


def test_cli_check_so_star_unknown_weight_pair(tmp_path, capsys):
    # +l and -l both stay unknown; only +l is enumerated, -l mirrors it
    code, rep = _check_json(tmp_path, capsys, {
        "schema": "liebalance-scenario/1",
        "group": {"family": "SO_STAR", "n": 6},
        "surface": {"genus": 2},
        "blocks": [
            {"kind": "imag_pair", "dim": 1, "mult": 2, "sig": [1, 1], "label": "b0"},
            {"kind": "imag_pair", "dim": 1, "mult": 1, "sig": [1, 0], "label": "b1"},
        ],
        "options": {"oracle": True},
    })
    assert code == 2
    assert rep["verdict"]["outcome"] == "indeterminate"
    assert rep["verdict"]["reason"] == "undetermined_maximality"
    assert rep["verdict"]["unknown"] == ["b0:+l"]
    assert rep["oracle"]["problems"] == []


def _replace(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


@pytest.mark.parametrize("path,value", [
    (("group",), "SU"),
    (("options",), 5),
    (("options", "cap"), "x"),
    (("options", "tolerance"), "x"),
    (("options", "seed"), "x"),
    (("blocks", 0, "dim"), 1.5),
    (("options", "tolerance"), -1),
    (("options", "tolerance"), 0),
    (("options", "cap"), -5),
    (("group", "p"), 2.5),
    (("group", "p"), True),
    (("group",), {"family": "SL_R", "n": 3.5}),
    (("group",), {"family": "SO", "p": 1, "q": 1}),
    (("group",), {"family": "SO_STAR", "n": 2}),
    (("--tolerance",), "-1"),
    (("--tolerance",), "nan"),
    (("decorations", 0, "target"), 0),
    (("decorations", 0, "toledo_quanta"), True),
])
def test_cli_check_malformed_scenario_exits_3(tmp_path, capsys, path, value):
    """Each case puts one bad value into a valid document, or, where the path
    names a command-line flag, runs the oracle with the flag set to that value."""
    doc = su23_scenario()
    flags = []
    if path[0].startswith("--"):
        flags = ["--oracle", f"{path[0]}={value}"]
    else:
        _replace(doc, path, value)
        with pytest.raises(ScenarioError):
            sc_mod.from_json(doc)
    file = tmp_path / "sc.json"
    file.write_text(json.dumps(doc))
    assert main(["check", str(file), *flags]) == 3
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("group,blocks_", [
    ({"family": "SO_C", "n": 4}, [{"kind": "dual_pair", "dim": 1, "mult": 1},
                                  {"kind": "zero", "dim": 2, "sig": [2, 0]}]),
    ({"family": "SP_C", "n": 2}, [{"kind": "zero", "dim": 2, "sig": [1, 1]}]),
], ids=["SO_C", "SP_C"])
def test_cli_check_signed_complex_zero_block_exits_3(tmp_path, capsys, group, blocks_, oracle):
    # the weight 0 of a complex group carries no form, so no signature
    file = tmp_path / "sc.json"
    file.write_text(json.dumps({"schema": "liebalance-scenario/1", "group": group,
                                "surface": {"genus": 2}, "blocks": blocks_,
                                "options": {"oracle": oracle}}))
    assert main(["check", str(file)]) == 3
    assert "validation error" in capsys.readouterr().err


def _signed(kind, dim, sig):
    return {"kind": kind, "dim": dim, "mult": 1, "sig": sig}


@pytest.mark.parametrize("group,blocks_,message", [
    ({"family": "SU", "p": 1, "q": 2},
     [{"kind": "sesq_self", "dim": 1, "class_sig": [1, 0], "mult_sig": [1, 0]},
      {"kind": "sesq_self", "dim": 2, "class_sig": [2, 0], "mult_sig": [1, 0]}],
     "the blocks fill SU(3,0), not SU(1,2)"),
    ({"family": "SO", "p": 3, "q": 1},
     [_signed("imag_pair", 1, [1, 0]), _signed("zero", 2, [0, 2])],
     "the blocks fill SO(2,2), not SO(3,1)"),
    # s = B(tau.,.) on the real model of Sp(p,q) has signature (2q, 2p)
    ({"family": "SP", "p": 1, "q": 1},
     [_signed("imag_pair", 1, [1, 0]), _signed("imag_pair", 1, [1, 0])],
     "the blocks fill Sp(0,2), not Sp(1,1)"),
], ids=["SU", "SO", "SP"])
def test_cli_check_form_signature_mismatch_exits_3(tmp_path, capsys, group, blocks_, message):
    # block rules run when the root system is built, not in from_json
    file = tmp_path / "sc.json"
    file.write_text(json.dumps({"schema": "liebalance-scenario/1", "group": group,
                                "surface": {"genus": 2}, "blocks": blocks_}))
    assert main(["check", str(file)]) == 3
    err = capsys.readouterr().err
    assert "validation error" in err and message in err


@pytest.mark.parametrize("group,blocks_,message", [
    ({"family": "SU", "p": 2, "q": 0},
     [{"kind": "sesq_self", "dim": 1, "mult": 5, "class_sig": [1, 0], "mult_sig": [1, 0],
       "label": "a"},
      {"kind": "sesq_self", "dim": 1, "class_sig": [1, 0], "mult_sig": [1, 0], "label": "b"}],
     "sesq_self mult 5 differs from the total 1 of its mult_sig"),
    ({"family": "SO", "p": 3, "q": 1},
     [_signed("imag_pair", 1, [1, 0]), {"kind": "zero", "dim": 2, "mult": 4, "sig": [1, 1]}],
     "a zero block has multiplicity 1, got 4"),
], ids=["sesq_self", "zero"])
def test_cli_check_mult_the_block_cannot_carry_exits_3(tmp_path, capsys, group, blocks_,
                                                       message):
    # a sesq_self block's multiplicity is the total of its multiplicity form,
    # and a zero block's is 1: a mult that says otherwise is refused, not dropped
    file = tmp_path / "sc.json"
    file.write_text(json.dumps({"schema": "liebalance-scenario/1", "group": group,
                                "surface": {"genus": 2}, "blocks": blocks_}))
    assert main(["check", str(file)]) == 3
    err = capsys.readouterr().err
    assert "validation error" in err and message in err


def test_group_json_round_trips_every_family():
    rng = random.Random(3)
    for fam in Family:
        for _ in range(5):
            spec, _ = random_scenario(fam, rng)
            assert sc_mod.group_from_json(sc_mod.group_to_json(spec)) == spec


def test_spec_for_reads_the_group_the_blocks_fill():
    assert blocks.spec_for(Family.SP, [blocks.imag_pair(1, 1, (1, 0)),
                                       blocks.imag_pair(1, 1, (0, 1))]) == groups.sp(1, 1)
    assert blocks.spec_for(Family.SO_STAR, [blocks.imag_pair(1, 1, (1, 0)),
                                            blocks.zero_block(2, (1, 1))]) == groups.so_star(4)
    assert blocks.spec_for(Family.SU, [blocks.sesq_pair(1, 1)]) == groups.su(1, 1)
    for family, bl in [
            (Family.SO, [blocks.imag_pair(1, 1, (1, 0))]),        # SO(2,0) is abelian
            (Family.SO_STAR, [blocks.zero_block(2, (1, 1))]),     # so is SO*(2)
            (Family.SL_H, [blocks.real_cls(2, 1), blocks.real_cls(1, 1)]),
            (Family.SP, [blocks.zero_block(2, (1, 1))])]:         # odd s-signature
        with pytest.raises(ScenarioError):
            blocks.spec_for(family, bl)


def test_cli_check_abelian_so2c_exits_3(tmp_path, capsys):
    file = tmp_path / "sc.json"
    file.write_text(json.dumps({
        "schema": "liebalance-scenario/1",
        "group": {"family": "SO_C", "n": 2},
        "surface": {"genus": 2},
        "blocks": [{"kind": "dual_pair", "dim": 1, "mult": 1}],
    }))
    assert main(["check", str(file)]) == 3
    assert "adjoint weights do not span" in capsys.readouterr().err


def test_cli_check_so2c_zero_block_is_flexible(tmp_path, capsys):
    file = tmp_path / "sc.json"
    file.write_text(json.dumps({
        "schema": "liebalance-scenario/1",
        "group": {"family": "SO_C", "n": 2},
        "surface": {"genus": 2},
        "blocks": [{"kind": "zero", "dim": 2}],
    }))
    assert main(["check", str(file)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"]["outcome"] == "flexible"


def test_cli_check_unreadable_file_exits_3(tmp_path):
    file = tmp_path / "sc.json"
    file.write_bytes(b'{"schema": "\xff"}')
    assert main(["check", str(file)]) == 3
    assert main(["check", str(tmp_path / "missing.json")]) == 3


FIELD_NAMES = ["family", "n", "m", "p", "q", "genus", "kind", "dim", "mult", "sig",
               "class_sig", "mult_sig", "label", "target", "status", "toledo_quanta",
               "oracle", "tolerance", "seed", "cap"]


def _json_containers(inner):
    # a named function: hypothesis cannot read a lambda split over lines,
    # and warns that it does not recurse
    return st.lists(inner, max_size=3) | \
        st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=4), inner, max_size=3)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    _json_containers, max_leaves=6)


def _paths(value, prefix=()):
    """Every position in a JSON document, containers included."""
    out = [prefix] if prefix else []
    if isinstance(value, dict):
        for key, child in value.items():
            out.extend(_paths(child, prefix + (key,)))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            out.extend(_paths(child, prefix + (i,)))
    return out


BASE_DOCUMENTS = [
    su23_scenario(),
    {"schema": "liebalance-scenario/1", "group": {"family": "SO", "p": 4, "q": 2},
     "surface": {"genus": 2},
     "blocks": [{"kind": "imag_pair", "dim": 1, "mult": 1, "sig": [1, 0]},
                {"kind": "zero", "dim": 4, "sig": [2, 2]}],
     "decorations": [{"target": "0", "status": "maximal_positive",
                      "toledo_quanta": "1/2"}],
     "options": {"oracle": False, "tolerance": 1e-9, "seed": 0, "cap": 12}},
]


@settings(max_examples=300)
@given(st.sampled_from(BASE_DOCUMENTS).flatmap(
    lambda doc: st.tuples(st.just(doc), st.lists(
        st.tuples(st.sampled_from(_paths(doc)), json_values), min_size=1, max_size=3))))
def test_from_json_gives_a_scenario_or_a_scenario_error(case):
    base, replacements = case
    doc = copy.deepcopy(base)
    for path, value in replacements:
        try:
            _replace(doc, path, value)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier replacement removed this position
    try:
        sc = sc_mod.from_json(doc)
    except ScenarioError:
        return
    again = sc_mod.from_json(json.loads(json.dumps(sc_mod.to_json(sc))))
    assert sc_mod.to_json(again) == sc_mod.to_json(sc)



DEMO_SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def _demo_with(name, *decorations):
    doc = json.loads((DEMO_SCENARIOS / name).read_text())
    doc["decorations"] += list(decorations)
    return doc


def _without_scenario(rep):
    return {k: v for k, v in rep.items() if k != "scenario"}


def test_cli_check_explicit_unknown_on_undecided_weight(tmp_path, capsys):
    # an explicit unknown counts as undecorated: the enumeration decides E:il
    # exactly as it does for the bare demo
    code, rep = _check_json(tmp_path, capsys, _demo_with("su23_undecided.json"))
    code_u, rep_u = _check_json(tmp_path, capsys, _demo_with(
        "su23_undecided.json", {"target": "E:il", "status": "unknown"}))
    assert code == code_u == 2
    assert _without_scenario(rep_u) == _without_scenario(rep)


def test_cli_check_explicit_unknown_leaves_definite_weight_non_maximal(tmp_path, capsys):
    code, rep = _check_json(tmp_path, capsys, _demo_with(
        "su23_rigid.json", {"target": "D:il", "status": "unknown"}))
    assert code == 0
    assert rep["verdict"]["outcome"] == "rigid_maximal"
    status = {w["label"]: w["status"] for w in rep["standard_weights"]}
    assert status["D:il"] == "non_maximal"
    assert status["E:il"] == "maximal_positive"


def test_cli_check_explicit_unknown_still_meets_milnor_wood(tmp_path, capsys):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(_demo_with(
        "su23_undecided.json",
        {"target": "E:il", "status": "unknown", "toledo_quanta": 10 ** 6})))
    assert main(["check", str(path)]) == 3
    assert "Milnor-Wood" in capsys.readouterr().err
