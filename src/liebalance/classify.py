"""Top-level verdict: flexible, rigid maximal, or indeterminate.

A reductive datum is flexible exactly when the center of the centralizer is
balanced. Several families short-circuit to "flexible" for structural
reasons (compact or complex groups, the special linear families where pure
imaginary weight spaces carry nonvanishing signature, skew ambient forms
where doubled weights span everything, and any real form of an orthogonal or
symplectic group with a non pure imaginary weight). Everything else runs
through the exact convex-position test. Statuses are set in one way:
`classify` substitutes each assignment of those its propagation leaves unknown.

`rigid_shape` states the paper's theorem once: a datum is rigid exactly when
it is maximal in S(U(p,p) x U(q-p)) inside SU(p,q), p != q, or in
SO*(2m-2) x SO(2) inside SO*(2m), m odd. Every decision, short-circuited or
not, is held to it in both directions: a balanced datum of rigid shape, or
an unbalanced one of no rigid shape, is an internal consistency failure,
reported loudly rather than absorbed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .balance import BalancednessCertificate, BalancednessInstance, is_balanced
from .blocks import ScenarioError, status_weight
from .groups import Family
from .roots import RootSystem
from .toledo import Propagation, Status, toledo_direct_sum


class InternalConsistencyError(RuntimeError):
    """A balancedness outcome that contradicts the rigidity theorem."""


@dataclass
class FlexVerdict:
    outcome: str                 # "flexible" | "rigid_maximal" | "indeterminate"
    reason: str
    descriptor: Optional[str] = None
    certificate: Optional[BalancednessCertificate] = None
    unknown: List[str] = field(default_factory=list)

    @property
    def flexible(self) -> bool:
        return self.outcome == "flexible"


MAX_UNKNOWN_ENUMERATION = 7


def balance_vectors(parts: Iterable[Tuple[Sequence, Sequence]], statuses: Iterable[Status]):
    """The balancedness rule over adjoint weights given as (re, im) parts
    with their statuses: P = imaginary parts of maximal-positive weights;
    N = real and imaginary parts of everything outside +-P. Returns the P
    and N vectors in order, zeros and repeats kept."""
    p_vecs, n_vecs = [], []
    for (re, im), status in zip(parts, statuses):
        if status is Status.MAXIMAL_POSITIVE:
            p_vecs.append(im)
        elif status is not Status.MAXIMAL_NEGATIVE:   # those lie in -P
            n_vecs.append(re)
            n_vecs.append(im)
    return p_vecs, n_vecs


def balance_instance(prop: Propagation) -> BalancednessInstance:
    """The instance of `balance_vectors` on the propagation's adjoint
    weights, zero vectors and repeats dropped."""
    p_vecs, n_vecs = balance_vectors(((r.root.re, r.root.im) for r in prop.rules),
                                     prop.statuses)
    return BalancednessInstance.make(prop.system.dim_c, _distinct_nonzero(p_vecs),
                                     _distinct_nonzero(n_vecs))


def _distinct_nonzero(vecs):
    """The nonzero vectors, each once, in order of first appearance."""
    return list(dict.fromkeys(v for v in vecs if any(x != 0 for x in v)))


def _short_circuit(system: RootSystem) -> Optional[str]:
    spec = system.spec
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


Decide = Callable[[Propagation], BalancednessCertificate]


def decide_afresh(prop: Propagation) -> BalancednessCertificate:
    """The certificate of the propagation's own balancedness instance, from
    `is_balanced` as bound in this module when called."""
    return is_balanced(balance_instance(prop))


def classify(prop: Propagation, decide: Optional[Decide] = None) -> FlexVerdict:
    """Decide the verdict of a propagation. Statuses it leaves unknown are
    enumerated and substituted into it. Every balancedness question goes to
    `decide(prop)`, by default `decide_afresh`; a sweep passes its own memo,
    which reads only the certificate's outcome."""
    decide = decide or decide_afresh

    # a nonzero X in c that every adjoint weight kills is central in g, so
    # the weights span c* exactly when g is semisimple or c is zero
    if prop.system.dim_c > 0 and not prop.system.spec.is_semisimple:
        raise ScenarioError(
            "adjoint weights do not span: the datum is not the center of a "
            "centralizer in a semisimple group")

    reason = _short_circuit(prop.system)
    if reason is not None:
        # no short-circuited group has a rigid shape, so each must balance
        return _decide(prop, decide, reason)

    unknowns = prop.unknown_blocks()
    if not unknowns:
        return _decide(prop, decide)
    if len(unknowns) > MAX_UNKNOWN_ENUMERATION:
        return FlexVerdict("indeterminate", "too_many_unknowns", unknown=unknowns)

    outcomes = [_decide(prop.substituted(assignment), decide)
                for assignment in assignments(unknowns)]
    if all(o.outcome == "flexible" for o in outcomes):
        return FlexVerdict("flexible", "balanced_under_all_assignments",
                           certificate=outcomes[0].certificate)
    return FlexVerdict("indeterminate", "undetermined_maximality", unknown=unknowns)


def assignments(labels: Sequence[str]):
    """Every list of (label, status) over the labelled standard weights, all
    non-maximal first. Each label's signature vanishes: sweeps target only
    such weights, and every rule derives its status from one."""
    choices = (Status.NON_MAXIMAL, Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE)
    for combo in itertools.product(choices, repeat=len(labels)):
        yield list(zip(labels, combo))


def _decide(prop: Propagation, decide: Decide, reason: str = "balanced") -> FlexVerdict:
    """Decide balancedness and hold the outcome to the theorem: unbalanced
    exactly when the datum has a rigid shape."""
    cert = decide(prop)
    shape = rigid_shape(prop)
    if cert.balanced == (shape is not None):
        found = f"the rigid shape {shape}" if shape else "no rigid shape"
        raise InternalConsistencyError(
            f"{prop.system.spec.describe()} datum with {found} came out "
            f"{'balanced' if cert.balanced else 'unbalanced'}")
    if cert.balanced:
        return FlexVerdict("flexible", reason, certificate=cert)
    return FlexVerdict("rigid_maximal", "unbalanced", descriptor=shape, certificate=cert)


def rigid_shape(prop: Propagation) -> Optional[str]:
    """The rigid shape the datum has, or None: the theorem's statement, read
    from block kinds, signatures and statuses alone.

    A datum is rigid exactly when its blocks of vanishing signature (at
    least one) are maximal together -- Toledo values add over a direct sum,
    so all with one sign -- and the rest is one compact factor: in SU(p,q),
    definite SesqSelf blocks all of one sign, which makes p != q and the
    image sit in S(U(h,h) x U(|p-q|)), h = min(p,q); in SO*(2m), m odd, a
    single definite weight pair on a quaternionic line, so the image sits in
    SO*(2m-2) x SO(2)."""
    spec, blocks = prop.system.spec, prop.system.blocks
    vanishing = [b for b in blocks if b.sig is not None and b.sig.is_vanishing()]
    rest = [b for b in blocks if b.sig is None or not b.sig.is_vanishing()]
    if spec.family == Family.SU:
        h = min(spec.p, spec.q)
        shape = f"S(U({h},{h}) x U({abs(spec.p - spec.q)}))"
        compact = (all(b.kind == "sesq_self" and b.sig.is_definite() for b in rest)
                   and len({b.sig.pos > 0 for b in rest}) == 1)
    elif spec.family == Family.SO_STAR and spec.m % 2:
        shape = f"SO*({2 * spec.m - 2}) x SO(2)"
        compact = len(rest) == 1 and rest[0].kind == "imag_pair" and rest[0].d_eff == 1
    else:
        return None
    statuses = [prop.block_status[status_weight(b)] for b in vanishing]
    maximal = bool(vanishing) and toledo_direct_sum(statuses).status in (
        Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE)
    return shape if compact and maximal else None
