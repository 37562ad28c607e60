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

These rules read only the group and the root system, so each adjoint weight
gets one ``WeightRule``: a forced status with its machine-readable rule tag
(audited by the sweeps), or the block weight whose status it reads, flipped
as the arithmetic laws above flip it. Statuses are set in one way:
``Propagation.substituted`` sets block statuses, each with its mirror on -l,
and reads every adjoint status again through its rule. Decorations, the
unknowns ``classify`` enumerates and a sweep's assignments are all
substituted. An explicit ``unknown`` sets no status: the weight counts as
undecorated, and a Toledo value on it still meets the Milnor-Wood check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .blocks import ScenarioError
from .groups import Family, GroupSpec
from .roots import AdjointRoot, RootSystem, StandardRoot


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


def toledo_direct_sum(parts: Sequence[Union[ToledoData, Status]]) -> ToledoData:
    """Toledo data of a direct sum. A part given as a bare Status has no
    known value or rank, so neither has the sum."""
    parts = [p if isinstance(p, ToledoData) else ToledoData(p) for p in parts]
    value = None if any(p.value is None for p in parts) else \
        sum((p.value for p in parts), Fraction(0))
    rank = None if any(p.rank is None for p in parts) else sum(p.rank for p in parts)
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


@dataclass(frozen=True)
class WeightRule:
    """What the tightness rules make of one adjoint weight, from the group and
    the root system alone: its status is either forced to non_maximal
    (``forced_tag`` names the rule; it is None for a weight that is not pure
    imaginary) or read from the block weight ``derived_from``, flipped when
    ``flipped`` is set."""
    root: AdjointRoot
    forced_tag: Optional[str]
    derived_from: Optional[str]
    flipped: bool

    def read(self, block_status: Dict[str, Status]) -> Status:
        if self.derived_from is None:
            return Status.NON_MAXIMAL
        status = block_status[self.derived_from]
        return status.flip() if self.flipped else status


@dataclass(frozen=True)
class PropagatedRoot(WeightRule):
    status: Status


@dataclass
class Propagation:
    """The standard weights' statuses and every adjoint status read from them
    through its rule."""
    spec: GroupSpec
    std: Dict[str, StandardRoot]
    block_status: Dict[str, Status]
    rules: List[WeightRule]
    adjoint: List[PropagatedRoot] = field(init=False)

    def __post_init__(self):
        self.adjoint = [PropagatedRoot(**vars(r), status=r.read(self.block_status))
                        for r in self.rules]

    def mirrored(self, label: str, status: Status) -> List[Tuple[str, Status]]:
        """(label, status), and the mirror status on the opposite weight -l
        when that is another weight.

        The antilinear structure identifies I_{-l} with the conjugate of I_l,
        so Toledo values negate; with the i*s dressing used when s is skew
        (eta*epsilon = -1) the two sign flips cancel and the dressed status is
        carried over unchanged. The observable symmetry -- opposite adjoint
        weights carry opposite statuses -- holds either way.
        """
        negation = self.std[label].negation
        if not negation or negation == label:
            return [(label, status)]
        return [(label, status),
                (negation, status if self.spec.eta_epsilon == -1 else status.flip())]

    def unknown_blocks(self) -> List[str]:
        """Block weights whose unknown status some adjoint weight still reads,
        one per pair +-l: a status on one weight sets its negation."""
        labels = sorted({p.derived_from for p in self.adjoint
                         if p.derived_from is not None
                         and self.block_status[p.derived_from] == Status.UNKNOWN})
        return [label for i, label in enumerate(labels)
                if self.std[label].negation not in labels[:i]]

    def substituted(self, assignment: Iterable[Tuple[str, Status]]) -> "Propagation":
        """This propagation with each (label, status) of ``assignment`` set on
        that block weight and its mirror on the negation; the adjoint statuses
        are read again through the same rules."""
        block_status = dict(self.block_status)
        for label, status in assignment:
            block_status.update(self.mirrored(label, status))
        return Propagation(self.spec, self.std, block_status, self.rules)


def propagate_constraints(spec: GroupSpec, system: RootSystem,
                          decorations: Sequence[Decoration],
                          surface: Optional[SurfaceData] = None) -> Propagation:
    """Build every adjoint weight's rule once, turn each decoration into the
    one status setting it asks for, and substitute those settings. A pure
    function of the inputs, hence idempotent."""
    std = system.standard_by_label()
    rules = {root.label: _rule(spec, std, root)
             for root in sorted(system.adjoint, key=lambda r: r.label)}

    # without a sesquilinear structure, or on a definite one (a compact
    # action, T = 0), a weight is non-maximal; elsewhere it is undecided
    block_status = {label: Status.UNKNOWN if r.pure_imaginary and r.sig is not None
                    and not r.sig.is_definite() else Status.NON_MAXIMAL
                    for label, r in std.items()}
    base = Propagation(spec, std, block_status, list(rules.values()))

    settings = []
    set_by: Dict[str, Tuple[str, Status]] = {}
    declared_value: Dict[str, Fraction] = {}
    for deco in decorations:
        setting = _setting(std, rules, deco)
        if deco.value is not None and deco.target in std:
            declared_value[deco.target] = deco.value
        if setting is None:
            continue
        # a weight another decoration set to something else is a conflict
        for label, status in base.mirrored(*setting):
            if label in set_by and set_by[label][1] != status:
                raise ScenarioError(f"decoration on {deco.target} conflicts with "
                                    f"another decoration on {set_by[label][0]}")
            set_by[label] = (deco.target, status)
        settings.append(setting)

    if surface is not None:
        for label, v in declared_value.items():
            r = std[label]
            if r.sig is not None and min(r.sig.pos, r.sig.neg) >= 1:
                bound = milnor_wood_bound(surface, min(r.sig.pos, r.sig.neg))
                if abs(v) > bound:
                    raise ScenarioError(
                        f"Toledo value {v} on {label} exceeds the Milnor-Wood bound {bound}")

    return base.substituted(settings)


def _setting(std, rules: Dict[str, WeightRule],
             deco: Decoration) -> Optional[Tuple[str, Status]]:
    """The checked (standard weight, status) a decoration sets, or None: an
    explicit unknown, or a non-maximal status on a forced weight, sets none."""
    maximal = deco.status in (Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE)
    if deco.target in std:
        r = std[deco.target]
        if maximal and (not r.pure_imaginary or r.sig is None):
            raise ScenarioError(
                f"{deco.target} carries no sesquilinear structure to be maximal for")
        if maximal and not r.sig.is_vanishing():
            raise ScenarioError(
                f"maximal status on {deco.target} needs vanishing signature "
                f"({TAG_VANISHING}); it has {r.sig}")
        label, status = deco.target, deco.status
    elif deco.target in rules:
        # adjoint-level decorations are sugar for the block they reference
        rule = rules[deco.target]
        if rule.forced_tag is not None:
            if maximal:
                raise ScenarioError(f"decoration on {deco.target} contradicts a "
                                    f"forced status ({rule.forced_tag})")
            return None
        if rule.derived_from is None:
            raise ScenarioError(f"adjoint weight {deco.target} accepts no decoration")
        label = rule.derived_from
        status = deco.status.flip() if rule.flipped else deco.status
    else:
        raise ScenarioError(f"decoration target {deco.target!r} is not a weight label")
    return None if status == Status.UNKNOWN else (label, status)


def _rule(spec, std, root: AdjointRoot) -> WeightRule:
    def forced(tag):
        return WeightRule(root, tag, None, False)

    if not root.pure_imaginary:
        return forced(None)
    if root.source[0] == "wedge":
        return forced(TAG_DOUBLE)
    if root.sig is None or not root.sig.is_vanishing():
        return forced(TAG_VANISHING)

    _, a_label, b_label = root.source
    ra, rb = std[a_label], std[b_label]
    a_def = ra.sig is not None and ra.sig.is_definite()
    b_def = rb.sig is not None and rb.sig.is_definite()
    a_van = ra.sig is not None and ra.sig.is_vanishing()
    b_van = rb.sig is not None and rb.sig.is_vanishing()
    if not ((a_def and b_van) or (b_def and a_van)):
        return forced(TAG_PAIRING_SU if spec.family == Family.SU else TAG_PAIRING_ORTH)

    zero_side = ra if ra.is_zero else (rb if rb.is_zero else None)
    if zero_side is not None:
        other = rb if zero_side is ra else ra
        if zero_side.sig.is_vanishing() and other.sig.is_definite():
            # the action on the zero weight space factors through the fixator
            # of its complement; only a tight tube-type embedding could make
            # it maximal
            if spec.family == Family.SO:
                return forced(TAG_SPLIT_ORTH)
            if spec.family == Family.SO_STAR and (zero_side.dim // 2) % 2 == 1:
                return forced(TAG_VANISHING)

    # one side definite: maximality transfers to the other side, with a sign
    # flip when the definite side is negative definite (source) or positive
    # definite (target)
    if a_def:
        return WeightRule(root, None, rb.label, ra.sig.pos == 0)
    return WeightRule(root, None, ra.label, rb.sig.pos > 0)
