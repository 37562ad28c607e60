"""Toledo invariant bookkeeping and tightness constraint propagation.

Whether a surface group action on a weight space is maximal with positive
Toledo invariant is *input data* (as a status on the isotypical blocks, or
directly on adjoint weights); nothing here integrates a Kaehler form. What
the module does enforce is everything that restricts such statuses:

* the Milnor-Wood bound |T| <= |chi| * rank on declared values;
* arithmetic of Toledo data under conjugation, direct sum, and tensoring
  with a unitary representation (values negate, add, and scale by dim);
* maximality on an adjoint weight space needs the space's sesquilinear form
  to have vanishing signature, and the induced tight map forces one of the
  two standard weight spaces involved to be definite and the other to have
  vanishing signature;
* doubled weights (the spaces of alternating or symmetric forms on a single
  weight space) never carry maximal actions;
* for SO(p,q) the only candidate pathway would tightly embed a split real
  orthogonal group into U(a,a), which never happens; for SO*(2m) the
  pathway exists only when the group acting on the zero weight space is of
  tube type, i.e. in half the dimensions.

Every forced status carries a machine-readable rule tag so sweeps can audit
that no forcing happens without justification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .blocks import ScenarioError
from .exact import Signature
from .groups import Family, GroupSpec
from .roots import AdjointRoot, RootSystem


class Status(enum.Enum):
    MAXIMAL_POSITIVE = "maximal_positive"
    MAXIMAL_NEGATIVE = "maximal_negative"
    NON_MAXIMAL = "non_maximal"
    UNKNOWN = "unknown"

    def flip(self) -> "Status":
        if self == Status.MAXIMAL_POSITIVE:
            return Status.MAXIMAL_NEGATIVE
        if self == Status.MAXIMAL_NEGATIVE:
            return Status.MAXIMAL_POSITIVE
        return self


# Rule tags carried by forced statuses (audited by the acceptance sweeps).
TAG_VANISHING = "maxtight"        # maximality needs s_lambda of vanishing signature,
#                                   and the tight-map consequences that come with it
TAG_PAIRING_SU = "lemsupq"        # tight U(V) x U(V') -> U(Hom(V,V')) forces
#                                   one factor definite, the other vanishing
TAG_PAIRING_ORTH = "signiell-1"   # same pairing constraint inside O^eps forms
TAG_DOUBLE = "signiell-2"         # doubled weights never meet the bound
TAG_SPLIT_ORTH = "o22"            # O(a,a) -> U(a,a) is never tight

ALL_TAGS = {TAG_VANISHING, TAG_PAIRING_SU, TAG_PAIRING_ORTH, TAG_DOUBLE, TAG_SPLIT_ORTH}


@dataclass(frozen=True)
class SurfaceData:
    genus: int

    def __post_init__(self):
        if self.genus < 2:
            raise ScenarioError("surface genus must be at least 2")

    @property
    def euler(self) -> int:
        return 2 - 2 * self.genus

    def genus_bound_ok(self, spec: GroupSpec) -> bool:
        return self.genus >= spec.genus_bound()


def milnor_wood_bound(surface: SurfaceData, rank: int) -> int:
    """|chi| * rank, the Milnor-Wood bound for actions on a Hermitian space of
    the given real rank."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return abs(surface.euler) * rank


@dataclass(frozen=True)
class ToledoData:
    """Status of one sesquilinear surface-group representation, with an
    optional Toledo value in multiples of the rationality quantum."""
    status: Status
    value: Optional[Fraction] = None
    rank: Optional[int] = None


def toledo_conjugate(t: ToledoData) -> ToledoData:
    return ToledoData(t.status.flip(), None if t.value is None else -t.value, t.rank)


def toledo_direct_sum(parts: Sequence[ToledoData]) -> ToledoData:
    value = None
    if all(p.value is not None for p in parts):
        value = sum((p.value for p in parts), Fraction(0))
    rank = None
    if all(p.rank is not None for p in parts):
        rank = sum(p.rank for p in parts)
    statuses = [p.status for p in parts]
    if any(s == Status.UNKNOWN for s in statuses):
        status = Status.UNKNOWN
    elif all(s == Status.MAXIMAL_POSITIVE for s in statuses):
        status = Status.MAXIMAL_POSITIVE
    elif all(s == Status.MAXIMAL_NEGATIVE for s in statuses):
        status = Status.MAXIMAL_NEGATIVE
    else:
        # mixed signs or a non-maximal summand: the bound cannot be met
        status = Status.NON_MAXIMAL
    return ToledoData(status, value, rank)


def toledo_hom_with_unitary(dim_v: int, t: ToledoData) -> ToledoData:
    """Hom(V, W) for a unitary V of dimension dim_v: the value scales by
    dim(V), and maximality is untouched because the rank scales the same way."""
    if dim_v < 1:
        raise ValueError("dim V must be >= 1")
    return ToledoData(t.status,
                      None if t.value is None else dim_v * t.value,
                      None if t.rank is None else dim_v * t.rank)


@dataclass(frozen=True)
class Decoration:
    """User-declared status: target is a standard weight label (block weight,
    "0" for the zero weight space) or an adjoint weight label."""
    target: str
    status: Status
    value: Optional[Fraction] = None


@dataclass
class PropagatedRoot:
    root: AdjointRoot
    status: Status
    forced_tag: Optional[str] = None     # rule tag when the status was forced
    derived_from: Optional[str] = None   # block weight whose status decides this one
    flipped: bool = False                # derived status is the flip of that weight's


@dataclass
class Propagation:
    block_status: Dict[str, Status]
    adjoint: List[PropagatedRoot]

    def unknown_blocks(self) -> List[str]:
        """Block weights whose unknown status is still referenced by some
        surviving adjoint weight."""
        labels = sorted({p.derived_from for p in self.adjoint
                         if p.forced_tag is None and p.derived_from is not None
                         and self.block_status[p.derived_from] == Status.UNKNOWN})
        return labels


def _definite_positive(sig: Signature) -> bool:
    return sig.is_definite() and sig.pos > 0


def propagate_constraints(spec: GroupSpec, system: RootSystem,
                          decorations: Sequence[Decoration],
                          surface: Optional[SurfaceData] = None) -> Propagation:
    """Resolve every adjoint weight to a status, forcing where the tightness
    rules leave no choice. Idempotent by construction (pure function of the
    inputs)."""
    std = system.standard_by_label()
    adj = system.adjoint_by_label()

    # 1. statuses on standard weights
    block_status: Dict[str, Status] = {}
    declared_value: Dict[str, Fraction] = {}
    for label, r in std.items():
        if not r.pure_imaginary or r.sig is None:
            block_status[label] = Status.NON_MAXIMAL
        elif r.sig.is_definite():
            block_status[label] = Status.NON_MAXIMAL  # compact action, T = 0
        else:
            block_status[label] = Status.UNKNOWN

    explicit: set = set()
    adjoint_decos: List[Decoration] = []
    for deco in decorations:
        if deco.target in std:
            _apply_standard_decoration(spec, std, block_status, declared_value,
                                       deco, explicit)
        elif deco.target in adj:
            adjoint_decos.append(deco)
        else:
            raise ScenarioError(f"decoration target {deco.target!r} is not a weight label")

    if surface is not None:
        for label, v in declared_value.items():
            r = std[label]
            if r.sig is not None and min(r.sig.pos, r.sig.neg) >= 1:
                bound = milnor_wood_bound(surface, min(r.sig.pos, r.sig.neg))
                if abs(v) > bound:
                    raise ScenarioError(
                        f"Toledo value {v} on {label} exceeds the Milnor-Wood bound {bound}")

    # 2. resolve adjoint weights
    resolved: List[PropagatedRoot] = []
    for root in sorted(system.adjoint, key=lambda r: r.label):
        resolved.append(_resolve(spec, system, std, block_status, root))

    # 3. adjoint-level decorations are sugar for the block they reference
    for deco in adjoint_decos:
        _apply_adjoint_decoration(spec, std, block_status, resolved, adj[deco.target],
                                  deco, explicit)
    if adjoint_decos:
        resolved = [_resolve(spec, system, std, block_status, p.root) for p in resolved]

    return Propagation(block_status, resolved)


def _mirror(spec: GroupSpec, status: Status) -> Status:
    """Status of the opposite weight -l given the status of l.

    The antilinear structure identifies I_{-l} with the conjugate of I_l, so
    Toledo values negate; with the i*s dressing used when s is skew
    (eta*epsilon = -1) the two sign flips cancel and the dressed status is
    carried over unchanged. The observable symmetry -- opposite adjoint
    weights carry opposite statuses -- holds either way.
    """
    if spec.eta_epsilon == -1:
        return status
    return status.flip()


def _set_status(spec, std, block_status, explicit, label, status, target):
    """Set a standard weight's status and its negation's mirror, as the
    decoration on ``target`` asks. Either one already set by another
    decoration to something else is a conflict."""
    r = std[label]
    settings = [(label, status)]
    if r.negation and r.negation != label:
        settings.append((r.negation, _mirror(spec, status)))
    for lbl, st in settings:
        if lbl in explicit and block_status[lbl] != st:
            raise ScenarioError(
                f"decoration on {target} conflicts with another decoration on {lbl}")
    for lbl, st in settings:
        block_status[lbl] = st
        explicit.add(lbl)


def _apply_standard_decoration(spec, std, block_status, declared_value, deco, explicit):
    r = std[deco.target]
    if deco.status in (Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE):
        if not r.pure_imaginary or r.sig is None:
            raise ScenarioError(
                f"{deco.target} carries no sesquilinear structure to be maximal for")
        if not r.sig.is_vanishing():
            raise ScenarioError(
                f"maximal status on {deco.target} needs vanishing signature "
                f"({TAG_VANISHING}); it has {r.sig}")
    _set_status(spec, std, block_status, explicit, deco.target, deco.status, deco.target)
    if deco.value is not None:
        declared_value[deco.target] = deco.value


def _apply_adjoint_decoration(spec, std, block_status, resolved, root, deco, explicit):
    prop = next(p for p in resolved if p.root.label == root.label)
    if prop.forced_tag is not None:
        if deco.status in (Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE):
            raise ScenarioError(
                f"decoration on {root.label} contradicts a forced status ({prop.forced_tag})")
        return
    if prop.derived_from is None:
        raise ScenarioError(f"adjoint weight {root.label} accepts no decoration")
    want = deco.status.flip() if prop.flipped else deco.status
    _set_status(spec, std, block_status, explicit, prop.derived_from, want, root.label)


def _resolve(spec, system, std, block_status, root: AdjointRoot) -> PropagatedRoot:
    if not root.pure_imaginary:
        return PropagatedRoot(root, Status.NON_MAXIMAL)
    if root.source[0] == "wedge":
        return PropagatedRoot(root, Status.NON_MAXIMAL, forced_tag=TAG_DOUBLE)
    if root.sig is None or not root.sig.is_vanishing():
        return PropagatedRoot(root, Status.NON_MAXIMAL, forced_tag=TAG_VANISHING)

    _, a_label, b_label = root.source
    ra, rb = std[a_label], std[b_label]
    pairing_tag = TAG_PAIRING_SU if spec.family == Family.SU else TAG_PAIRING_ORTH
    a_def = ra.sig is not None and ra.sig.is_definite()
    b_def = rb.sig is not None and rb.sig.is_definite()
    a_van = ra.sig is not None and ra.sig.is_vanishing()
    b_van = rb.sig is not None and rb.sig.is_vanishing()
    if not ((a_def and b_van) or (b_def and a_van)):
        return PropagatedRoot(root, Status.NON_MAXIMAL, forced_tag=pairing_tag)

    zero_side = ra if ra.is_zero else (rb if rb.is_zero else None)
    if zero_side is not None:
        other = rb if zero_side is ra else ra
        if zero_side.sig.is_vanishing() and other.sig.is_definite():
            # the action on the zero weight space factors through the fixator
            # of its complement; only a tight tube-type embedding could make
            # it maximal
            if spec.family == Family.SO:
                return PropagatedRoot(root, Status.NON_MAXIMAL, forced_tag=TAG_SPLIT_ORTH)
            if spec.family == Family.SO_STAR:
                half = zero_side.dim // 2
                if half % 2 == 1:
                    return PropagatedRoot(root, Status.NON_MAXIMAL,
                                          forced_tag=TAG_VANISHING)

    # one side definite: maximality transfers to the other side, with a sign
    # flip when the definite side is negative definite (source) or positive
    # definite (target)
    if a_def:
        ref, flip = rb, not _definite_positive(ra.sig)
    else:
        ref, flip = ra, _definite_positive(rb.sig)
    status = block_status[ref.label]
    eff = status.flip() if flip else status
    return PropagatedRoot(root, eff, derived_from=ref.label, flipped=flip)
