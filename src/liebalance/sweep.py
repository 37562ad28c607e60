"""Exhaustive classification sweeps.

For a family and a bound on the ambient dimension, enumerate every
configuration (canonicalized up to permutation) of the multiplicity-one
blocks that `blocks.check_block` admits for the family, and every legal
assignment of maximality statuses, and classify each. Statuses are set in
one way: each assignment is substituted into the configuration's one
propagation. `classify` holds every decision to `classify.rigid_shape`, the
theorem's statement, in both directions, and raises on a contradiction: the
sweep records each raise as a mismatch, so an unbalanced datum of no rigid
shape and a balanced one of rigid shape both show up. Every forced status
must also carry one of the known rule tags. A sweep forms each distinct
run's key once, decides each distinct question once, in the quotient by
span(N) (`balance.quotient_key`), and reads only the outcome.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from . import blocks as bk
from . import groups
from .balance import (BalancednessCertificate, BalancednessInstance, CanonicalKey,
                      canonical_key_of, is_balanced, quotient_key)
from .blocks import Block, ScenarioError
from .classify import InternalConsistencyError, assignments, balance_vectors, classify
from .exact import Signature
from .groups import Family
from .roots import root_system, weight_geometry
from .toledo import ALL_TAGS, propagate_constraints


@dataclass
class SweepResult:
    family: Family
    bound: int
    configurations: int = 0
    runs: int = 0
    flexible: int = 0
    rigid: List[Dict] = field(default_factory=list)
    tag_violations: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.tag_violations and not self.mismatches


def _unit_blocks(family: Family, bound: int) -> List[Block]:
    """Every multiplicity-one block of ambient dimension <= bound that
    `blocks.check_block` accepts for the family: each kind in canonical
    order, each dimension, and no signature or each signature (a, d - a)."""
    if groups.FAMILIES[family].is_complex:
        raise ValueError(f"no sweep is defined for {family.value}")
    units = []
    for kind in bk._KIND_ORDER:
        for d in range(1, bound + 1):
            for sig in (None, *(Signature(a, d - a) for a in range(d + 1))):
                # one copy of a sesq_self class: the multiplicity form is (1, 0)
                unit = (bk.sesq_self(d, sig, (1, 0)) if kind == "sesq_self" and sig
                        else Block(kind, d, sig=sig))
                try:
                    bk.check_block(family, unit)
                except ScenarioError:
                    continue
                if bk.ambient_contribution(unit) <= bound:
                    units.append(unit)
    return units


def _configurations(family: Family, bound: int) -> List[List[Block]]:
    """Multisets of unit blocks, at most one of them a zero block, whose total
    ambient dimension lies between the family's smallest dimension and the
    bound; the blocks of each are labelled b0, b1, ... in order."""
    units = _unit_blocks(family, bound)
    costs = [bk.ambient_contribution(b) for b in units]
    least = groups.FAMILIES[family].min_dim
    results: List[List[Block]] = []

    def rec(start: int, chosen: List[Block], total: int):
        if chosen and total >= least:
            results.append([Block(b.kind, b.dim, b.mult, b.sig, b.class_sig, b.mult_sig, f"b{i}")
                            for i, b in enumerate(chosen)])
        for i in range(start, len(units)):
            if total + costs[i] <= bound:
                # the zero blocks come last, and one is the most a list takes
                rec(len(units) if units[i].kind == "zero" else i,
                    chosen + [units[i]], total + costs[i])

    rec(0, [], 0)
    return results


def _decoration_targets(system) -> List[str]:
    """The weight that carries each vanishing block's status."""
    return [bk.status_weight(b) for b in system.blocks
            if b.sig is not None and b.sig.is_vanishing()]


MAX_SWEEP_BOUND = 14


def run_sweep(family: Family, bound: int) -> SweepResult:
    """Classify every decorated configuration of the family up to the bound.

    The configurations of one sweep ask the same balancedness questions again
    and again, so memos that die with the call decide each once, at two
    levels. A run's question is fixed by its root system's dim c and integer
    adjoint parts and its statuses, so the first memo is keyed on that
    value. Only a new run forms its `balance.canonical_key_of` from
    `classify.balance_vectors` and maps it to its `balance.quotient_key`, the
    question asked in R^k / span(N), which many runs share; only a new
    quotient key builds its instance for `is_balanced`. So a sweep's
    certificates belong to quotient instances, not to the runs' own, and the
    sweep reads only their outcomes: every certificate was verified when it
    was made, and the quotient has the run's verdict, so sharing one changes
    no output. In the same way `geometry` memoizes `weight_geometry` for the
    call: the configurations that differ only in signatures share one
    skeleton, and each root system is signed and audited afresh."""
    if not 2 <= bound <= MAX_SWEEP_BOUND:
        raise ValueError(f"sweep bound must lie in [2, {MAX_SWEEP_BOUND}]")
    res = SweepResult(family, bound)
    by_run: Dict[Tuple, BalancednessCertificate] = {}
    by_quotient: Dict[CanonicalKey, BalancednessCertificate] = {}

    def decide(prop) -> BalancednessCertificate:
        system = prop.system
        # dim c rides along: no adjoint weight, no parts to read it from
        run = (system.dim_c, system.adjoint_parts, prop.statuses)
        cert = by_run.get(run)
        if cert is None:
            # prop.statuses and the system's adjoint_parts share the label order
            quotient = quotient_key(canonical_key_of(
                system.dim_c, *balance_vectors(system.adjoint_parts, prop.statuses)))
            cert = by_quotient.get(quotient)
            if cert is None:
                cert = by_quotient[quotient] = is_balanced(BalancednessInstance.make(*quotient))
            by_run[run] = cert
        return cert

    geometry = functools.lru_cache(maxsize=None)(weight_geometry)
    for blocks_ in _configurations(family, bound):
        spec = bk.spec_for(family, blocks_)
        system = root_system(spec, blocks_, geometry)
        res.configurations += 1
        base = propagate_constraints(system, [])
        for rule in base.rules:
            if rule.forced_tag is not None and rule.forced_tag not in ALL_TAGS:
                res.tag_violations.append(
                    f"{spec.describe()}/{rule.root.label}: tag {rule.forced_tag}")
            if rule.forced_tag is None and rule.derived_from is None \
                    and rule.root.pure_imaginary:
                res.tag_violations.append(
                    f"{spec.describe()}/{rule.root.label}: untagged forcing")
        for assignment in assignments(_decoration_targets(system)):
            try:
                verdict = classify(base.substituted(assignment), decide)
            except InternalConsistencyError as exc:
                res.mismatches.append(f"{spec.describe()}: {exc}")
                continue
            res.runs += 1
            if verdict.outcome == "flexible":
                res.flexible += 1
            elif verdict.outcome == "rigid_maximal":
                res.rigid.append({
                    "group": spec.describe(),
                    "descriptor": verdict.descriptor,
                    "blocks": [bk_desc(b) for b in system.blocks],
                    "decorations": [f"{t}={s.value}" for t, s in assignment],
                })
            else:
                res.mismatches.append(
                    f"{spec.describe()}: indeterminate inside a fully decorated sweep")
    return res


def bk_desc(b: Block) -> str:
    sig = f",sig=({b.sig.pos},{b.sig.neg})" if b.sig is not None else ""
    return f"{b.kind}(d={b.dim},r={b.mult}{sig})"


def summary_table(res: SweepResult) -> str:
    lines = [
        f"family          {res.family.value}",
        f"bound           {res.bound}",
        f"configurations  {res.configurations}",
        f"decorated runs  {res.runs}",
        f"flexible        {res.flexible}",
        f"rigid           {len(res.rigid)}",
    ]
    for r in res.rigid:
        lines.append(f"  {r['group']}: {r['descriptor']}  "
                     f"[{'; '.join(r['blocks'])}; {', '.join(r['decorations'])}]")
    if res.tag_violations:
        lines.append("tag violations:")
        lines.extend(f"  {v}" for v in res.tag_violations)
    if res.mismatches:
        lines.append("CLASSIFICATION MISMATCHES:")
        lines.extend(f"  {v}" for v in res.mismatches)
    else:
        lines.append("classification matches the expected rigid list")
    return "\n".join(lines) + "\n"
