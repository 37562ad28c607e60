"""Exhaustive classification sweeps.

For a family and a bound on the ambient dimension, enumerate every block
configuration (canonicalized up to permutation) and every legal assignment of
maximality statuses, classify each, and compare the set of unbalanced
configurations against the expected list: nothing at all except the two rigid
shapes, which occur exactly for SU(p,q) with p != q and for SO*(2m) with m
odd. Any excess or deficit is reported as a mismatch; every forced
status must also carry one of the known rule tags.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from . import blocks as bk
from . import groups
from .blocks import Block
from .classify import InternalConsistencyError, classify
from .groups import Family
from .roots import root_system
from .toledo import ALL_TAGS, Decoration, Status, SurfaceData


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


def _variants(family: Family, bound: int):
    """All unit shapes usable in a configuration of ambient dimension <= bound.
    Each variant: (key, cost, factory) where factory(label) -> Block."""
    out = []
    if family in (Family.SL_R, Family.SL_H):
        quat = family == Family.SL_H
        for d in range(1, bound + 1):
            if quat and d % 2:
                continue
            out.append((("real", d), d,
                        lambda lbl, d=d: bk.real_cls(d, 1, lbl)))
        for d in range(1, bound // 2 + 1):
            out.append((("pair", d), 2 * d,
                        lambda lbl, d=d: bk.conj_pair(d, 1, lbl)))
        return out
    if family == Family.SU:
        for d in range(1, bound + 1):
            for a in range(d + 1):
                out.append((("self", d, a), d,
                            lambda lbl, d=d, a=a: bk.sesq_self(d, (a, d - a), (1, 0), lbl)))
        for d in range(1, bound // 2 + 1):
            out.append((("pair", d), 2 * d,
                        lambda lbl, d=d: bk.sesq_pair(d, 1, lbl)))
        return out
    if family in (Family.SO, Family.SP_R, Family.SO_STAR, Family.SP):
        quat = family in (Family.SO_STAR, Family.SP)
        skew_s = family in (Family.SP_R, Family.SO_STAR)
        for d in range(1, bound // 2 + 1):
            for a in range(d + 1):
                out.append((("imag", d, a), 2 * d,
                            lambda lbl, d=d, a=a: bk.imag_pair(d, 1, (a, d - a), lbl)))
        for d in range(1, bound // 2 + 1):
            if quat and d % 2:
                continue
            out.append((("split", d), 2 * d,
                        lambda lbl, d=d: bk.split_pair(d, 1, lbl)))
        for d in range(1, bound // 4 + 1):
            out.append((("quad", d), 4 * d,
                        lambda lbl, d=d: bk.quad_pair(d, 1, lbl)))
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
                            lambda lbl, d0=d0, sig=sig: bk.zero_block(d0, sig, lbl)))
        return out
    raise ValueError(f"no sweep is defined for {family.value}")


def _configurations(family: Family, bound: int):
    """Multisets of variants whose total ambient dimension lies between the
    family's smallest dimension and the bound."""
    variants = _variants(family, bound)
    least = groups.FAMILIES[family].min_dim
    results: List[List] = []

    def rec(start: int, chosen: List, total: int, zero_used: bool):
        if total > bound:
            return
        if chosen and total >= least:
            results.append(list(chosen))
        for i in range(start, len(variants)):
            key, cost, factory = variants[i]
            if total + cost > bound:
                continue
            if key[0] == "zero":
                if zero_used:
                    continue
                rec(i + 1, chosen + [variants[i]], total + cost, True)
            else:
                rec(i, chosen + [variants[i]], total + cost, zero_used)

    rec(0, [], 0, False)
    return results


def _decoration_targets(system) -> List[str]:
    targets = []
    for r in system.standard:
        # one weight of each pair +-l: the negation's status mirrors it
        if r.pure_imaginary and r.sig is not None and r.sig.is_vanishing() \
                and r.negation not in targets:
            targets.append(r.label)
    z = system.zero
    if z is not None and z.sig is not None and z.sig.is_vanishing():
        targets.append("0")
    return targets


MAX_SWEEP_BOUND = 14
# decoration targets enumerated per configuration; classify enumerates the
# statuses of any beyond it. SU <= 8 and SO* <= 14 need at most 4.
MAX_DECORATIONS = 6


def run_sweep(family: Family, bound: int) -> SweepResult:
    if not 2 <= bound <= MAX_SWEEP_BOUND:
        raise ValueError(f"sweep bound must lie in [2, {MAX_SWEEP_BOUND}]")
    res = SweepResult(family, bound)
    for combo in _configurations(family, bound):
        blocks_ = [factory(f"b{i}") for i, (key, cost, factory) in enumerate(combo)]
        spec = bk.spec_for(family, blocks_)
        system = root_system(spec, blocks_)
        res.configurations += 1
        surface = SurfaceData(genus=spec.genus_bound())
        targets = _decoration_targets(system)[:MAX_DECORATIONS]
        statuses = (Status.NON_MAXIMAL, Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE)
        for assignment in itertools.product(statuses, repeat=len(targets)):
            decos = [Decoration(t, s) for t, s in zip(targets, assignment)]
            try:
                verdict, prop = classify(spec, surface, system, decos)
            except InternalConsistencyError as exc:
                res.mismatches.append(f"{spec.describe()}: {exc}")
                continue
            res.runs += 1
            for pr in prop.adjoint:
                if pr.forced_tag is not None and pr.forced_tag not in ALL_TAGS:
                    res.tag_violations.append(
                        f"{spec.describe()}/{pr.root.label}: tag {pr.forced_tag}")
                if pr.status == Status.NON_MAXIMAL and pr.forced_tag is None \
                        and pr.derived_from is None and pr.root.pure_imaginary:
                    res.tag_violations.append(
                        f"{spec.describe()}/{pr.root.label}: untagged forcing")
            if verdict.outcome == "flexible":
                res.flexible += 1
            elif verdict.outcome == "rigid_maximal":
                res.rigid.append({
                    "group": spec.describe(),
                    "descriptor": verdict.descriptor,
                    "blocks": [bk_desc(b) for b in system.blocks],
                    "decorations": [f"{d.target}={d.status.value}" for d in decos],
                })
            else:
                res.mismatches.append(
                    f"{spec.describe()}: indeterminate inside a fully decorated sweep")
    _check_expectations(res)
    return res


def bk_desc(b: Block) -> str:
    sig = f",sig=({b.sig.pos},{b.sig.neg})" if b.sig is not None else ""
    return f"{b.kind}(d={b.dim},r={b.mult}{sig})"


def _check_expectations(res: SweepResult):
    fam = res.family
    if fam in (Family.SL_R, Family.SL_H, Family.SO, Family.SP_R):
        if res.rigid:
            res.mismatches.append(
                f"{fam.value}: expected no rigid configurations, found {len(res.rigid)}")
        return
    if fam == Family.SU:
        for r in res.rigid:
            if not r["descriptor"].startswith("S(U("):
                res.mismatches.append(f"unexpected rigid descriptor {r}")
        if res.bound >= 3 and not any(r["group"] in ("SU(1,2)", "SU(2,1)")
                                      for r in res.rigid):
            res.mismatches.append("expected maximal split-unitary data in SU(1,2)")
        for r in res.rigid:
            g = r["group"]
            p, q = map(int, g[3:-1].split(","))
            if p == q:
                res.mismatches.append(f"rigid configuration in split {g}")
        return
    if fam == Family.SO_STAR:
        for r in res.rigid:
            n2 = int(r["group"][4:-1])
            if (n2 // 2) % 2 == 0:
                res.mismatches.append(f"rigid configuration in {r['group']}, m even")
            if not r["descriptor"].startswith("SO*("):
                res.mismatches.append(f"unexpected rigid descriptor {r}")
        if res.bound >= 6 and not any(r["group"] == "SO*(6)" for r in res.rigid):
            res.mismatches.append("expected the SO*(6) rigid shape")
        return
    if fam == Family.SP and res.rigid:
        res.mismatches.append("expected no rigid configurations for Sp(p,q)")


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
