"""Full pipeline runs and their machine-readable reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import scenario as sc_mod
from .blocks import Block, ScenarioError
from .classify import FlexVerdict, InternalConsistencyError, balance_instance, classify
from .exact import Signature
from .oracle import oracle_check
from .roots import RootSystem, root_system
from .scenario import Scenario
from .toledo import Propagation, propagate_constraints


def _frac(x: Fraction) -> str:
    return str(x)


def _vec(v) -> List[str]:
    return [_frac(x) for x in v]


def _sig(s: Optional[Signature]):
    if s is None:
        return None
    return [s.pos, s.neg]


# GL(mult, C) factors each block kind contributes to the centralizer, at the
# level of the complexified algebra. A sesq_self block instead contributes one
# U(a, b), where (a, b) is the signature of its multiplicity form.
_GL_FACTORS = {"cls": 1, "real_cls": 1, "imag_pair": 1, "split_pair": 1,
               "dual_pair": 1, "conj_pair": 2, "sesq_pair": 2, "quad_pair": 2,
               "zero": 0}


def block_factors(b: Block) -> List[str]:
    """Centralizer factors contributed by one block. Each has a
    one-dimensional center."""
    if b.kind == "sesq_self":
        return [f"U({b.mult_sig.pos},{b.mult_sig.neg})"]
    return [f"GL({b.mult},C)"] * _GL_FACTORS[b.kind]


def center_dim_crosscheck(system: RootSystem) -> Tuple[int, int]:
    """(number of centralizer factors less one for the trace relation,
    complexified dimension of the center). Equal by construction; the factor
    count does not read the weight table, so it is an independent check."""
    total = sum(len(block_factors(b)) for b in system.blocks)
    if system.spec.is_sl_like:
        total -= 1
    dim_c_complexified = system.dim_c // 2 if system.spec.is_complex else system.dim_c
    return total, dim_c_complexified


@dataclass
class RunResult:
    scenario: Scenario
    propagation: Propagation
    verdict: FlexVerdict
    oracle_problems: Optional[List[str]]

    def exit_code(self) -> int:
        if self.oracle_problems:
            return 4
        if self.verdict.outcome == "indeterminate":
            return 2
        return 0


def run_scenario(sc: Scenario) -> RunResult:
    opts = sc.options
    if opts.oracle and sc.spec.ambient_dim > opts.cap:
        raise ScenarioError(f"oracle cap {opts.cap} is below the ambient dimension "
                            f"{sc.spec.ambient_dim} of {sc.spec.describe()}")
    system = root_system(sc.spec, sc.blocks)
    factors, dim_c = center_dim_crosscheck(system)
    if factors != dim_c:
        raise InternalConsistencyError(
            f"factor centers sum to {factors} but the center has dimension {dim_c}")
    prop = propagate_constraints(system, sc.decorations, sc.surface)
    verdict = classify(prop)
    oracle_problems = None
    if opts.oracle:
        oracle_problems = oracle_check(system, opts.seed, opts.tolerance, opts.cap)
    return RunResult(sc, prop, verdict, oracle_problems)


def to_json(res: RunResult) -> Dict:
    sc = res.scenario
    system = res.propagation.system
    factor_list = []
    for b in system.blocks:
        for f in block_factors(b):
            factor_list.append({"block": b.label, "factor": f, "center_dim": 1})
    std = []
    for r in system.standard_by_label().values():
        std.append({
            "label": r.label, "re": _vec(r.re), "im": _vec(r.im), "dim": r.dim,
            "pure_imaginary": r.pure_imaginary, "signature": _sig(r.sig),
            "status": res.propagation.block_status[r.label].value,
        })
    adj = []
    for rule, status in zip(res.propagation.rules, res.propagation.statuses):
        r = rule.root
        entry = {
            "label": r.label, "re": _vec(r.re), "im": _vec(r.im), "dim": r.dim,
            "pure_imaginary": r.pure_imaginary, "signature": _sig(r.sig),
            "status": status.value,
        }
        if rule.forced_tag:
            entry["forced_by"] = rule.forced_tag
        if rule.derived_from:
            entry["derived_from"] = rule.derived_from
            entry["derived_flipped"] = rule.flipped
        adj.append(entry)
    inst = balance_instance(res.propagation)
    cert = res.verdict.certificate
    balance = {
        "ambient_dim": inst.ambient_dim,
        "p_vectors": [_vec(v) for v in inst.p_vectors],
        "n_vectors": [_vec(v) for v in inst.n_vectors],
    }
    if cert is not None:
        balance["balanced"] = cert.balanced
        if cert.balanced:
            balance["witness"] = {
                "coefficients": [_frac(c) for c in cert.coefficients or []],
                "n_coefficients": [_frac(c) for c in cert.n_coefficients or []],
                "spanning": [[t, i] for t, i in (cert.spanning_indices or [])],
            }
        else:
            balance["witness"] = {"functional": _vec(cert.functional)}
    out = {
        "schema": "liebalance-report/1",
        "scenario": sc_mod.to_json(sc),
        "group": sc.spec.describe(),
        "dim_g": sc.spec.dim_complexified,
        "dim_center": system.dim_c,
        "zero_space_dim": system.dim_g0,
        "centralizer_factors": factor_list,
        "standard_weights": std,
        "adjoint_weights": adj,
        "balance": balance,
        "verdict": {
            "outcome": res.verdict.outcome,
            "reason": res.verdict.reason,
            "descriptor": res.verdict.descriptor,
            "genus_bound_ok": sc.surface.genus_bound_ok(sc.spec),
            "unknown": res.verdict.unknown,
        },
    }
    if res.oracle_problems is not None:
        out["oracle"] = {"checked": True, "problems": res.oracle_problems}
    return out


def render_json(res: RunResult) -> str:
    return json.dumps(to_json(res), indent=2) + "\n"


def render_text(res: RunResult) -> str:
    d = to_json(res)
    lines = []
    lines.append(f"group            {d['group']}   (dim {d['dim_g']})")
    lines.append(f"genus            {res.scenario.surface.genus}"
                 f"   bound ok: {d['verdict']['genus_bound_ok']}")
    lines.append(f"center dim       {d['dim_center']}")
    lines.append("centralizer      " + (" x ".join(f["factor"] for f in
                                                   d["centralizer_factors"]) or "-"))
    lines.append("standard weights")
    for r in d["standard_weights"]:
        sig = f" sig {tuple(r['signature'])}" if r["signature"] else ""
        flag = " imaginary" if r["pure_imaginary"] else ""
        lines.append(f"  {r['label']:<12} dim {r['dim']:<3}{flag}{sig}"
                     f"  status {r['status']}")
    lines.append("adjoint weights")
    for r in d["adjoint_weights"]:
        sig = f" sig {tuple(r['signature'])}" if r["signature"] else ""
        why = f" [{r['forced_by']}]" if "forced_by" in r else ""
        lines.append(f"  {r['label']:<22} dim {r['dim']:<3} status "
                     f"{r['status']}{sig}{why}")
    bal = d["balance"]
    if "balanced" in bal:
        lines.append(f"balanced         {bal['balanced']}")
    v = d["verdict"]
    extra = f" ({v['descriptor']})" if v["descriptor"] else ""
    lines.append(f"verdict          {v['outcome']}{extra}   reason: {v['reason']}")
    if v["unknown"]:
        lines.append(f"unknown statuses {', '.join(v['unknown'])}")
    if "oracle" in d:
        probs = d["oracle"]["problems"]
        lines.append(f"oracle           {'agrees' if not probs else probs}")
    return "\n".join(lines) + "\n"
