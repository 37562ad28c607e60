"""Top-level verdict: flexible, rigid maximal, or indeterminate.

A reductive datum is flexible exactly when the center of the centralizer is
balanced. Several families short-circuit to "flexible" for structural
reasons (compact or complex groups, the special linear families where pure
imaginary weight spaces carry nonvanishing signature, skew ambient forms
where doubled weights span everything, and any real form of an orthogonal or
symplectic group with a non pure imaginary weight). Everything else runs
through the exact convex-position test; an unbalanced outcome must match one
of the two rigid shapes -- a maximal datum of split-unitary type inside
SU(p,q), p != q, or the odd SO*(2m) shape -- and anything else is an internal
consistency failure, reported loudly rather than absorbed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .balance import BalancednessCertificate, BalancednessInstance, is_balanced
from .blocks import ScenarioError
from .groups import Family, GroupSpec
from .roots import RootSystem
from .toledo import (Decoration, Propagation, Status, SurfaceData,
                     propagate_constraints, toledo_direct_sum)


class InternalConsistencyError(RuntimeError):
    """An unbalanced configuration outside the known rigid shapes."""


@dataclass
class FlexVerdict:
    outcome: str                 # "flexible" | "rigid_maximal" | "indeterminate"
    reason: str
    descriptor: Optional[str] = None
    genus_bound_ok: bool = True
    certificate: Optional[BalancednessCertificate] = None
    unknown: List[str] = field(default_factory=list)

    @property
    def flexible(self) -> bool:
        return self.outcome == "flexible"


MAX_UNKNOWN_ENUMERATION = 7


def balance_instance(system: RootSystem, prop: Propagation) -> BalancednessInstance:
    """P = imaginary parts of maximal-positive weights; N = real and imaginary
    parts of everything outside +-P."""
    k = system.dim_c
    p_vecs, n_vecs = [], []
    seen_p, seen_n = set(), set()
    for pr in prop.adjoint:
        if pr.status == Status.MAXIMAL_POSITIVE:
            v = pr.root.im
            if any(x != 0 for x in v) and v not in seen_p:
                seen_p.add(v)
                p_vecs.append(v)
        elif pr.status == Status.MAXIMAL_NEGATIVE:
            continue   # lies in -P
        else:
            for v in (pr.root.re, pr.root.im):
                if any(x != 0 for x in v) and v not in seen_n:
                    seen_n.add(v)
                    n_vecs.append(v)
    return BalancednessInstance.make(k, p_vecs, n_vecs)


def _short_circuit(spec: GroupSpec, system: RootSystem) -> Optional[str]:
    if spec.is_complex:
        return "complex_group"
    if spec.is_compact:
        return "compact_group"
    if spec.family in (Family.SL_R, Family.SL_H):
        return "special_linear_nonvanishing"
    if spec.epsilon == -1:
        return "skew_ambient_form"
    if spec.is_orthogonal_like and any(not r.pure_imaginary for r in system.standard):
        return "non_imaginary_weight"
    return None


def classify(spec: GroupSpec, surface: SurfaceData, system: RootSystem,
             decorations: Sequence[Decoration]) -> Tuple[FlexVerdict, Propagation]:
    """Run constraint propagation and decide the verdict."""
    prop = propagate_constraints(spec, system, decorations, surface)
    genus_ok = surface.genus_bound_ok(spec)

    if not system.adjoint_spans:
        raise ScenarioError(
            "adjoint weights do not span: the datum is not the center of a "
            "centralizer in a semisimple group")

    reason = _short_circuit(spec, system)
    if reason is not None:
        inst = balance_instance(system, prop)
        cert = is_balanced(inst)
        if not cert.balanced:
            raise InternalConsistencyError(
                f"{reason} configuration came out unbalanced")
        return FlexVerdict("flexible", reason, genus_bound_ok=genus_ok,
                           certificate=cert), prop

    std = system.standard_by_label()
    unknowns = prop.unknown_blocks(std)
    if not unknowns:
        return _decide(spec, system, prop, genus_ok), prop
    if len(unknowns) > MAX_UNKNOWN_ENUMERATION:
        return FlexVerdict("indeterminate", "too_many_unknowns",
                           genus_bound_ok=genus_ok, unknown=unknowns), prop

    outcomes = [_decide(spec, system, prop.substituted(spec, std, assignment), genus_ok)
                for assignment in _assignments(std, unknowns)]
    if all(o.outcome == "flexible" for o in outcomes):
        return FlexVerdict("flexible", "balanced_under_all_assignments",
                           genus_bound_ok=genus_ok,
                           certificate=outcomes[0].certificate), prop
    return FlexVerdict("indeterminate", "undetermined_maximality",
                       genus_bound_ok=genus_ok, unknown=unknowns), prop


def _assignments(std, unknowns: Sequence[str]):
    """Every legal list of (label, status) over the unknown weights: maximal
    only where the signature vanishes, all non-maximal first."""
    choices = [(Status.NON_MAXIMAL, Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE)
               if std[label].sig.is_vanishing() else (Status.NON_MAXIMAL,)
               for label in unknowns]
    for combo in itertools.product(*choices):
        yield list(zip(unknowns, combo))


def _decide(spec, system, prop: Propagation, genus_ok) -> FlexVerdict:
    inst = balance_instance(system, prop)
    cert = is_balanced(inst)
    if cert.balanced:
        return FlexVerdict("flexible", "balanced", genus_bound_ok=genus_ok,
                           certificate=cert)
    descriptor = _match_rigid_shape(spec, system, prop)
    return FlexVerdict("rigid_maximal", "unbalanced", descriptor=descriptor,
                       genus_bound_ok=genus_ok, certificate=cert)


def _maximal_sum(prop: Propagation, labels: Sequence[str]) -> bool:
    """Whether these weights' actions sum to a maximal one (Toledo additivity)."""
    total = toledo_direct_sum([prop.block_status[label] for label in labels]).status
    return total in (Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE)


def _match_rigid_shape(spec: GroupSpec, system: RootSystem,
                       prop: Propagation) -> str:
    if spec.family == Family.SU:
        return _match_su_shape(spec, system, prop)
    if spec.family == Family.SO_STAR:
        return _match_so_star_shape(spec, system, prop)
    raise InternalConsistencyError(
        f"unbalanced configuration in {spec.describe()}, which is always balanced")


def _match_su_shape(spec, system, prop) -> str:
    blocks = system.blocks
    if any(b.kind == "sesq_pair" for b in blocks):
        raise InternalConsistencyError("unbalanced SU datum with free weight pairs")
    definite, vanishing = [], []
    for b in blocks:
        if b.sig.is_definite():
            definite.append(b)
        elif b.sig.is_vanishing():
            vanishing.append(b)
        else:
            raise InternalConsistencyError("unbalanced SU datum with an indefinite, "
                                           "nonvanishing block")
    if not definite or not vanishing:
        raise InternalConsistencyError("unbalanced SU datum without the "
                                       "definite/vanishing split")
    signs = {b.sig.pos > 0 for b in definite}
    if len(signs) != 1:
        raise InternalConsistencyError("unbalanced SU datum with mixed definite signs")
    if not _maximal_sum(prop, [f"{b.label}:il" for b in vanishing]):
        raise InternalConsistencyError("unbalanced SU datum whose vanishing blocks "
                                       "are not maximal with one sign")
    half = sum(b.d_eff for b in vanishing) // 2
    rest = sum(b.d_eff for b in definite)
    if {spec.p, spec.q} != {half, half + rest} or spec.p == spec.q:
        raise InternalConsistencyError("unbalanced SU datum with inconsistent shape")
    return f"S(U({half},{half}) x U({rest}))"


def _match_so_star_shape(spec, system, prop) -> str:
    """The rigid SO*(2m) configurations: one definite weight pair spanning a
    quaternionic line, everything else of vanishing signature (weight pairs
    of even dimension and/or a zero space) and carrying maximal statuses.
    The image then sits in SO*(2m-2) x SO(2), acting maximally on the
    complement of the line, and m is odd automatically: the complement has
    complex dimension 2m - 2 = 2 (mod 4) pieces of even-dimensional
    vanishing blocks with an even-half zero space passing the tube-type
    parity rule."""
    blocks = system.blocks
    if any(b.kind in ("split_pair", "quad_pair") for b in blocks):
        raise InternalConsistencyError("unbalanced SO* datum with free weights")
    definite = [b for b in blocks if b.kind == "imag_pair" and b.sig.is_definite()]
    vanishing = [b for b in blocks if b.kind == "imag_pair" and b.sig.is_vanishing()]
    zeros = [b for b in blocks if b.kind == "zero"]
    rest = [b for b in blocks if b.kind == "imag_pair"
            and not (b.sig.is_definite() or b.sig.is_vanishing())]
    if rest:
        raise InternalConsistencyError("unbalanced SO* datum with an indefinite, "
                                       "nonvanishing weight pair")
    if len(definite) != 1 or definite[0].d_eff != 1:
        raise InternalConsistencyError("unbalanced SO* datum without a single "
                                       "definite quaternionic line")
    if not vanishing and not zeros:
        raise InternalConsistencyError("unbalanced SO* datum with nothing maximal")
    if any(not z.sig.is_vanishing() for z in zeros):
        raise InternalConsistencyError("unbalanced SO* datum with nonvanishing "
                                       "zero block")
    labels = [f"{b.label}:+l" for b in vanishing] + (["0"] if zeros else [])
    if not _maximal_sum(prop, labels):
        raise InternalConsistencyError("unbalanced SO* datum whose vanishing blocks "
                                       "are not maximal with one sign")
    if spec.m % 2 == 0:
        raise InternalConsistencyError("unbalanced SO*(2m) datum with even m")
    return f"SO*({2 * spec.m - 2}) x SO(2)"
