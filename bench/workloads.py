"""The three benchmark workloads: inputs made from a seed, one round of
operations, and the output checks of a round.

A round is a fixed list of operations; a run repeats whole rounds, so every
run of a workload attempts the same mix and the share of failed operations is
the same whatever the seed and the run length.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

import checks

# The Tier-1 acceptance sweeps plus Sp(p,q), cut so that one round takes 15 to
# 19 s on a 2-core host: SO* <= 12 alone takes 23 s, so SO* stops at 10, which
# still holds the rigid SO*(6) and SO*(10); SO and SL(n,R) stop at 7.
SWEEP_PLAN = [("SU", 6), ("SO", 7), ("SP_R", 8), ("SO_STAR", 10),
              ("SL_R", 7), ("SL_H", 8), ("SP", 8)]

# Ambient dimensions drawn for each family in one `check` round. Every seed
# draws CHECK_PER_SLOT scenarios per (family, dimension) slot, so the cost
# profile of a round, which the ambient dimension mostly sets, is the same for
# every seed while the block data, signatures and decorations vary. SO(2,C) is
# abelian and is left out (its `check` exits 3).
CHECK_DIMS = {
    "SL_R": range(2, 13), "SL_C": range(2, 13), "SL_H": range(2, 13, 2),
    "SU": range(2, 13), "SO": range(3, 13), "SP_R": range(2, 13, 2),
    "SP": range(2, 13, 2), "SO_STAR": range(4, 13, 2), "SO_C": range(3, 13),
    "SP_C": range(2, 13, 2),
}
# One scenario per slot leaves the round's time with a 6% coefficient of
# variation across seeds (block structure sets the number of weight spaces);
# three per slot bring it near 4%.
CHECK_PER_SLOT = 3

# Two faults kept as failed operations: both documents fail on every run.
# (a) SU with a sesq_pair block: the centralizer-center cross-check in
#     report.run_scenario counts the block's GL(r,C) center as 0.
# (b) valid undecorated SO* data whose +l and -l weights both stay unknown:
#     the enumeration in classify assigns them independent statuses.
FAULT_DOCUMENTS = [
    {"group": {"family": "SU", "p": 1, "q": 1},
     "blocks": [{"kind": "sesq_pair", "dim": 1, "mult": 1, "label": "b0"}]},
    {"group": {"family": "SO_STAR", "n": 6},
     "blocks": [{"kind": "imag_pair", "dim": 1, "mult": 2, "sig": [1, 1], "label": "b0"},
                {"kind": "imag_pair", "dim": 1, "mult": 1, "sig": [1, 0], "label": "b1"}]},
]

# Criterion-5 distribution: k in 1..5, 1..12 vectors of which 0..n lie in P,
# entries p/q with |p| <= 9 and 1 <= q <= 9. Each (k, vector count) pair
# appears this many times per round, so a round matches the distribution's
# (k, count) marginal exactly for every seed.
BALANCE_PER_SHAPE = 10

STATUSES = ("non_maximal", "maximal_positive", "maximal_negative")


@dataclass
class Round:
    """What one round produced: per-op seconds, counts and raw outputs."""
    op_seconds: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    outputs: List = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


class Workload:
    name = ""
    # layers whose wrappers must fire when this workload is traced
    exercised: Tuple[str, ...] = ()

    def run_round(self) -> Round:
        raise NotImplementedError

    def problems(self, rnd: Round) -> List[str]:
        """Independent checks of a round's outputs."""
        raise NotImplementedError

    def latency_samples(self, rnd: Round) -> List[float]:
        return rnd.op_seconds


def _timed(fn: Callable, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Sweep(Workload):
    """`run_sweep` over SWEEP_PLAN; the seed only orders the plan."""
    name = "sweep"
    exercised = ("sweep.run_sweep", "roots.root_system", "classify.classify",
                 "toledo.propagate_constraints", "balance.is_balanced", "linalg.rref")

    def __init__(self, lb, seed: int):
        self.lb = lb
        self.plan = list(SWEEP_PLAN)
        random.Random(seed).shuffle(self.plan)

    def run_round(self) -> Round:
        rnd = Round()
        for family, bound in self.plan:
            res, dt = _timed(self.lb.sweep.run_sweep, self.lb.groups.Family(family), bound)
            rnd.busy_s += dt
            rnd.attempted += res.runs + len(res.mismatches)
            rnd.failed += len(res.mismatches)
            rnd.outputs.append((family, bound, {
                "configurations": res.configurations, "runs": res.runs,
                "flexible": res.flexible,
                "rigid": sorted((r["group"], r["descriptor"]) for r in res.rigid),
                "tag_violations": res.tag_violations, "mismatches": res.mismatches}))
        return rnd

    def problems(self, rnd: Round) -> List[str]:
        out = []
        for family, bound, summary in rnd.outputs:
            out.extend(checks.sweep_problems(family, bound, summary))
        return out

    def latency_samples(self, rnd: Round) -> List[float]:
        # single classifications inside run_sweep cannot be timed from
        # outside without wrapping the program, so the sample is the round's
        # mean time per classification
        return [rnd.busy_s / rnd.attempted]


def _block_doc(b, label: str) -> Dict:
    d: Dict = {"kind": b.kind, "dim": b.dim}
    if b.kind != "zero":
        d["mult"] = b.mult
    if b.kind == "sesq_self":
        d["class_sig"] = [b.class_sig.pos, b.class_sig.neg]
        d["mult_sig"] = [b.mult_sig.pos, b.mult_sig.neg]
    elif b.sig is not None:
        d["sig"] = [b.sig.pos, b.sig.neg]
    d["label"] = label
    return d


def _vanishing(sig) -> bool:
    return sig is not None and sig.pos == sig.neg


def check_document(lb, family: str, dim: int, rng: random.Random) -> Dict:
    """One scenario document of the given family and ambient dimension."""
    fam = lb.groups.Family(family)
    for _ in range(10000):
        spec, blocks = lb.randomgen.random_scenario(fam, rng, cap=dim)
        # SU data with a sesq_pair block all hit fault (a); FAULT_DOCUMENTS
        # carries that fault instead
        if spec.ambient_dim == dim and not any(b.kind == "sesq_pair" for b in blocks):
            break
    else:
        raise RuntimeError(f"no {family} scenario of dimension {dim} drawn")
    docs, decorations = [], []
    for i, b in enumerate(blocks):
        label = f"b{i}"
        docs.append(_block_doc(b, label))
        target = None
        if b.kind == "sesq_self" and _vanishing(b.sig):
            target = f"{label}:il"
        elif b.kind == "imag_pair" and _vanishing(b.sig):
            target = f"{label}:+l"
        elif b.kind == "zero" and _vanishing(b.sig):
            target = "0"
        if target is None:
            continue
        # SO/SO* pairs left unknown can hit fault (b) depending on the draw,
        # so they are always decorated; FAULT_DOCUMENTS carries that fault
        always = b.kind == "imag_pair" and family in ("SO", "SO_STAR")
        if always or rng.random() < 0.5:
            decorations.append({"target": target, "status": rng.choice(STATUSES)})
    return {"group": _group_doc(spec, family), "blocks": docs,
            "decorations": decorations, "oracle_seed": rng.randint(0, 10 ** 6)}


def _group_doc(spec, family: str) -> Dict:
    if family in ("SL_R", "SL_C", "SO_C"):
        return {"family": family, "n": spec.n}
    if family == "SL_H":
        return {"family": family, "m": spec.m}
    if family in ("SP_R", "SP_C", "SO_STAR"):
        return {"family": family, "n": 2 * spec.m}
    return {"family": family, "p": spec.p, "q": spec.q}


def scenario_json(doc: Dict, genus: int) -> Dict:
    return {"schema": "liebalance-scenario/1", "group": doc["group"],
            "surface": {"genus": genus}, "blocks": doc["blocks"],
            "decorations": doc.get("decorations", []),
            "options": {"oracle": True, "tolerance": 1e-9,
                        "seed": doc.get("oracle_seed", 0), "cap": 12}}


class Check(Workload):
    """from_json -> run_scenario -> render_json on one document at a time,
    closed loop with one client."""
    name = "check"
    exercised = ("scenario.from_json", "report.run_scenario", "report.render_json",
                 "roots.root_system", "classify.classify", "toledo.propagate_constraints",
                 "balance.is_balanced", "linalg.rref", "oracle.synthesize_model",
                 "modelbuild.build_model", "oracle.brute_force_roots",
                 "oracle.compare_reports", "linalg.matmul", "exact.signature_of")

    def __init__(self, lb, seed: int):
        self.lb = lb
        rng = random.Random(seed)
        docs = [check_document(lb, fam, d, rng)
                for fam, dims in CHECK_DIMS.items() for d in dims
                for _ in range(CHECK_PER_SLOT)]
        docs += FAULT_DOCUMENTS
        # the genus bound 2 dim_R(G)^2 of the largest group, SL(12,C) with
        # real dimension 286, so genus_bound_ok holds for every document
        genus = 2 * 286 ** 2
        self.inputs = [json.dumps(scenario_json(d, genus)) for d in docs]

    def run_round(self) -> Round:
        lb = self.lb
        errors = (lb.blocks.ScenarioError, lb.classify.InternalConsistencyError,
                  lb.oracle.OracleError)
        rnd = Round()
        for text in self.inputs:
            t0 = time.perf_counter()
            try:
                doc = json.loads(text)
                out = lb.report.render_json(lb.report.run_scenario(lb.scenario.from_json(doc)))
            except errors as exc:
                dt = time.perf_counter() - t0
                rnd.failed += 1
                rnd.failures.append(f"{type(exc).__name__}: {exc}")
                out = None
            else:
                dt = time.perf_counter() - t0
                rnd.op_seconds.append(dt)
            rnd.busy_s += dt
            rnd.attempted += 1
            rnd.outputs.append(out)
        return rnd

    def problems(self, rnd: Round) -> List[str]:
        out = []
        for text in rnd.outputs:
            if text is not None:
                out.extend(checks.report_problems(json.loads(text)))
        return out


class Balance(Workload):
    """`is_balanced` on seeded criterion-5 instances."""
    name = "balance"
    exercised = ("balance.is_balanced", "linalg.rref")

    def __init__(self, lb, seed: int):
        self.lb = lb
        rng = random.Random(seed)
        self.instances = []
        for k in range(1, 6):
            for nv in range(1, 13):
                for _ in range(BALANCE_PER_SHAPE):
                    n_p = rng.randint(0, nv)
                    vecs = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(k)] for _ in range(nv)]
                    self.instances.append(
                        lb.balance.BalancednessInstance.make(k, vecs[:n_p], vecs[n_p:]))
        rng.shuffle(self.instances)

    def run_round(self) -> Round:
        rnd = Round()
        is_balanced = self.lb.balance.is_balanced
        for inst in self.instances:
            cert, dt = _timed(is_balanced, inst)
            rnd.op_seconds.append(dt)
            rnd.busy_s += dt
            rnd.attempted += 1
            rnd.outputs.append(cert)
        return rnd

    def problems(self, rnd: Round) -> List[str]:
        out = []
        brute = self.lb.balance.is_balanced_bruteforce
        for i, (inst, cert) in enumerate(zip(self.instances, rnd.outputs)):
            problem = checks.certificate_problem(
                inst.ambient_dim, inst.p_vectors, inst.n_vectors, cert.balanced,
                cert.coefficients, cert.n_coefficients, cert.spanning_indices,
                cert.functional)
            if problem:
                out.append(f"instance {i}: {problem}")
            elif cert.balanced != brute(inst):
                out.append(f"instance {i}: verdict disagrees with the support-set "
                           f"enumeration")
        return out


WORKLOADS = {w.name: w for w in (Sweep, Check, Balance)}


def fingerprint(rnd: Round) -> str:
    """Canonical text of a round's outputs, to compare rounds and runs."""
    items = []
    for o in rnd.outputs:
        if hasattr(o, "balanced"):
            o = (o.balanced, o.coefficients, o.n_coefficients, o.spanning_indices,
                 o.functional)
        items.append(repr(o))
    return "\n".join(items)
