"""Scenario files: a versioned, diffable JSON schema for one classification run.

A scenario holds the group, the surface genus, the isotypical block data and
the maximality decorations. Reports echo the scenario, so a report can be
re-run; field order and rational formatting are fixed to keep outputs byte
stable. Reading a block checks only its own fields; whether the family
admits it is `blocks.check_block`'s to say, when the blocks meet the group.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from . import blocks as bk
from . import groups
from .blocks import Block, ScenarioError
from .groups import Family, GroupSpec
from .toledo import Decoration, Status, SurfaceData

SCHEMA = "liebalance-scenario/1"


@dataclass(frozen=True)
class Options:
    oracle: bool = False
    tolerance: float = 1e-9
    seed: int = 0
    cap: int = 12

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ScenarioError(
                f"tolerance must be a positive finite number, got {self.tolerance!r}")
        if self.cap < 1:
            raise ScenarioError(f"cap must be at least 1, got {self.cap!r}")


@dataclass
class Scenario:
    spec: GroupSpec
    surface: SurfaceData
    blocks: List[Block]
    decorations: List[Decoration] = field(default_factory=list)
    options: Options = field(default_factory=Options)


def _int(value) -> int:
    """A whole number: a JSON integer, or a number with no fractional part.
    Refuses booleans, strings and fractional values, which int() would read
    as 0/1, parse or truncate."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _pair(value) -> Tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"expected a pair of integers, got {value!r}")
    return _int(value[0]), _int(value[1])


def _list(d: Dict, key: str) -> List:
    value = d.get(key, [])
    if not isinstance(value, list):
        raise ScenarioError(f"{key} must be a JSON list, got {value!r}")
    return value


def group_to_json(spec: GroupSpec) -> Dict:
    keys = groups.FAMILIES[spec.family].keys
    return {"family": spec.family.value,
            **{k: spec.ambient_dim if k == "n" else getattr(spec, k) for k in keys}}


def group_from_json(d: Dict) -> GroupSpec:
    if not isinstance(d, dict):
        raise ScenarioError(f"group must be a JSON object, got {d!r}")
    try:
        params = groups.FAMILIES[Family(d["family"])]
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"unknown family in {d!r}") from exc
    try:
        return params.make(*(_int(d[k]) for k in params.keys))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad group parameters in {d!r}: {exc}") from exc


def block_to_json(b: Block) -> Dict:
    out: Dict = {"kind": b.kind, "dim": b.dim}
    if b.kind != "zero":
        out["mult"] = b.mult
    if b.kind == "sesq_self":
        out["class_sig"] = [b.class_sig.pos, b.class_sig.neg]
        out["mult_sig"] = [b.mult_sig.pos, b.mult_sig.neg]
    elif b.sig is not None:
        out["sig"] = [b.sig.pos, b.sig.neg]
    if b.label:
        out["label"] = b.label
    return out


def block_from_json(d: Dict) -> Block:
    try:
        kind = d["kind"]
        dim = _int(d["dim"])
        mult = _int(d.get("mult", 1))
        label = d.get("label", "")
        if not isinstance(label, str):
            raise ScenarioError(f"block label must be a string, got {label!r}")
        if kind == "sesq_self":
            # the multiplicity is the total of the multiplicity form
            block = bk.sesq_self(dim, _pair(d["class_sig"]), _pair(d["mult_sig"]), label)
            if "mult" in d and mult != block.mult:
                raise ScenarioError(f"sesq_self mult {mult} differs from the total "
                                    f"{block.mult} of its mult_sig")
            return block
        if kind == "imag_pair":
            return bk.imag_pair(dim, mult, _pair(d["sig"]), label)
        if kind == "zero":
            if mult != 1:
                raise ScenarioError(f"a zero block has multiplicity 1, got {mult}")
            return bk.zero_block(dim, _pair(d["sig"]) if "sig" in d else None, label)
        # every other kind takes only dim, mult and label
        if isinstance(kind, str) and kind in bk.WEIGHTS:
            return Block(kind, dim, mult, label=label)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad block {d!r}: {exc}") from exc
    raise ScenarioError(f"unknown block kind {d.get('kind')!r}")


def decoration_to_json(deco: Decoration) -> Dict:
    out = {"target": deco.target, "status": deco.status.value}
    if deco.value is not None:
        out["toledo_quanta"] = str(deco.value)
    return out


def decoration_from_json(d: Dict) -> Decoration:
    try:
        target = d["target"]
        if not isinstance(target, str):
            raise ValueError(f"target must be a string, got {target!r}")
        status = Status(d["status"])
        value = None
        if "toledo_quanta" in d:
            if isinstance(d["toledo_quanta"], bool):
                raise ValueError(f"toledo_quanta must be a number, got {d['toledo_quanta']!r}")
            value = Fraction(d["toledo_quanta"])
        return Decoration(target, status, value)
    except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
        raise ScenarioError(f"bad decoration {d!r}: {exc}") from exc


def to_json(sc: Scenario) -> Dict:
    return {
        "schema": SCHEMA,
        "group": group_to_json(sc.spec),
        "surface": {"genus": sc.surface.genus},
        "blocks": [block_to_json(b) for b in sc.blocks],
        "decorations": [decoration_to_json(d) for d in sc.decorations],
        "options": {"oracle": sc.options.oracle, "tolerance": sc.options.tolerance,
                    "seed": sc.options.seed, "cap": sc.options.cap},
    }


def from_json(d: Dict) -> Scenario:
    if not isinstance(d, dict):
        raise ScenarioError("scenario must be a JSON object")
    if d.get("schema") != SCHEMA:
        raise ScenarioError(f"unsupported schema {d.get('schema')!r}; expected {SCHEMA}")
    spec = group_from_json(d.get("group", {}))
    surf = d.get("surface", {})
    try:
        surface = SurfaceData(_int(surf["genus"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad surface data {surf!r}: {exc}") from exc
    blocks = [block_from_json(b) for b in _list(d, "blocks")]
    decos = [decoration_from_json(x) for x in _list(d, "decorations")]
    return Scenario(spec, surface, blocks, decos, _options_from_json(d.get("options", {})))


def _options_from_json(opt) -> Options:
    if not isinstance(opt, dict):
        raise ScenarioError(f"options must be a JSON object, got {opt!r}")
    try:
        oracle = opt.get("oracle", False)
        if not isinstance(oracle, bool):
            raise ValueError(f"oracle must be true or false, got {oracle!r}")
        tolerance = opt.get("tolerance", 1e-9)
        if isinstance(tolerance, bool):
            raise ValueError(f"tolerance must be a number, got {tolerance!r}")
        return Options(oracle, float(tolerance), _int(opt.get("seed", 0)),
                       _int(opt.get("cap", 12)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"bad options {opt!r}: {exc}") from exc


def load(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc}") from exc
    return from_json(data)


def dumps(sc: Scenario) -> str:
    return json.dumps(to_json(sc), indent=2, sort_keys=False) + "\n"
