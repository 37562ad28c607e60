"""Isotypical block data describing how a reductive subgroup sits in G.

A scenario never constructs the subgroup H itself. It declares the isotypical
decomposition of the standard representation under H: for each block, the
dimension of the irreducible class, its multiplicity, how the block meets the
invariant form (duality), how complex conjugation / the quaternionic structure
permutes it, and the exact signature of the sesquilinear form s(v,v') =
B(tau v, v') it inherits when that form exists. Those are the only inputs the
classification consumes.

Block kinds by family (``groups.FAMILIES`` lists them, and ``check_block``,
the one home of the per-block rules, holds each block to its family):

* SL_C:   ``Cls(d, r)``
* SL_R /
  SL_H:   ``RealCls(d, r)`` (conjugation-stable class, real-valued weight) and
          ``ConjPair(d, r)`` (class plus its conjugate, weights z, conj z)
* SU:     ``SesqSelf(d, class_sig, mult_sig)`` (self-conjugate-dual class,
          pure imaginary weight, carries a signature) and ``SesqPair(d, r)``
          (class plus conjugate-dual partner, weights z, -conj z)
* SO, SP_R, SP, SO_STAR (bilinear ambient with structure tau):
          ``ImagPair(d, r, sig)``  dual pair swapped by tau: weights +-i t,
          ``SplitPair(d, r)``      dual pair fixed by tau: weights +-u (real),
          ``QuadPair(d, r)``       dual pair moved off itself by tau: four
                                   weights +-z, +-conj z,
          ``ZeroBlock(d0, sig)``   everything on which the center acts by 0.
* SO_C / SP_C: ``DualPair(d, r)`` and ``ZeroBlock(d0)``, which carries no
          signature.

For skew s (Sp(2m,R) and SO*(2m), where eta*epsilon = -1) a declared signature
refers to the symmetric sesquilinear form i*s.

``WEIGHTS`` is the one table of each kind's weight spaces: their labels, their
order in the matrix model, and each weight as a combination of the block's
real coordinates. The weights, the trace relation and the center's matrices
are all read from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .exact import Signature
from . import groups
from .groups import Family, GroupSpec


class ScenarioError(ValueError):
    """Scenario data violates a structural constraint."""


def _sig(pair) -> Signature:
    if isinstance(pair, Signature):
        return pair
    a, b = pair
    if a < 0 or b < 0:
        raise ScenarioError(f"signature parts must be nonnegative: {pair}")
    return Signature(int(a), int(b))


@dataclass(frozen=True)
class Block:
    kind: str
    dim: int                      # dimension d of the irreducible class
    mult: int = 1                 # multiplicity r
    sig: Optional[Signature] = None        # block-level signature where defined
    class_sig: Optional[Signature] = None  # SU: signature on the class itself
    mult_sig: Optional[Signature] = None   # SU: signature of the multiplicity form D
    label: str = ""

    @property
    def d_eff(self) -> int:
        return self.dim * self.mult


def cls(d, r=1, label=""):
    return Block("cls", d, r, label=label)


def real_cls(d, r=1, label=""):
    return Block("real_cls", d, r, label=label)


def conj_pair(d, r=1, label=""):
    return Block("conj_pair", d, r, label=label)


def sesq_self(d, class_sig, mult_sig, label=""):
    cs, ms = _sig(class_sig), _sig(mult_sig)
    if cs.dim != d:
        raise ScenarioError("class signature must have total dimension d")
    block_sig = Signature(cs.pos * ms.pos + cs.neg * ms.neg,
                          cs.pos * ms.neg + cs.neg * ms.pos)
    return Block("sesq_self", d, ms.dim, sig=block_sig,
                 class_sig=cs, mult_sig=ms, label=label)


def sesq_pair(d, r=1, label=""):
    return Block("sesq_pair", d, r, label=label)


def imag_pair(d, r, sig, label=""):
    s = _sig(sig)
    if s.dim != d * r:
        raise ScenarioError("ImagPair signature must have total dimension d*r")
    return Block("imag_pair", d, r, sig=s, label=label)


def split_pair(d, r=1, label=""):
    return Block("split_pair", d, r, label=label)


def quad_pair(d, r=1, label=""):
    return Block("quad_pair", d, r, label=label)


def dual_pair(d, r=1, label=""):
    return Block("dual_pair", d, r, label=label)


def zero_block(d0, sig=None, label=""):
    s = _sig(sig) if sig is not None else None
    if s is not None and s.dim != d0:
        raise ScenarioError("zero block signature must have total dimension d0")
    return Block("zero", d0, 1, sig=s, label=label)


# The weight spaces of each block kind, in slice order: a label suffix and the
# weight as (re, im) coefficients of the block's real coordinates. A free
# weight has coordinates (x, y), so conj_pair's z = x + iy and zc = x - iy;
# a real-valued or pure imaginary weight has one coordinate. Each weight space
# has dimension d*r; the zero block is the single weight 0, of dimension d0.
WEIGHTS = {
    "cls": (("z", (1, 0), (0, 1)),),
    "real_cls": (("t", (1,), (0,)),),
    "conj_pair": (("z", (1, 0), (0, 1)), ("zc", (1, 0), (0, -1))),
    "sesq_self": (("il", (0,), (1,)),),
    "sesq_pair": (("z", (1, 0), (0, 1)), ("mzc", (-1, 0), (0, 1))),
    "imag_pair": (("+l", (0,), (1,)), ("-l", (0,), (-1,))),
    "split_pair": (("+u", (1,), (0,)), ("-u", (-1,), (0,))),
    "quad_pair": (("+z", (1, 0), (0, 1)), ("-z", (-1, 0), (0, -1)),
                  ("+zc", (1, 0), (0, -1)), ("-zc", (-1, 0), (0, 1))),
    "dual_pair": (("+z", (1, 0), (0, 1)), ("-z", (-1, 0), (0, -1))),
}

_KIND_ORDER = [*WEIGHTS, "zero"]


def ambient_contribution(b: Block) -> int:
    """Dimension of the standard representation the block covers."""
    return b.dim if b.kind == "zero" else len(WEIGHTS[b.kind]) * b.d_eff


# the pairs whose form pairs each weight space with another one, so that
# it is split
_FREE_PAIRS = ("sesq_pair", "split_pair", "quad_pair")


def form_signature(blocks: Sequence[Block]) -> Tuple[int, int]:
    """(pos, neg) of the form the blocks carry: the Hermitian form of SU(p,q),
    the form on the real points of SO(p,q), or s = B(tau.,.) on the real model
    of Sp(p,q). Each weight space of a block carries the block's declared
    signature, and a free pair carries half of each sign. Only SU, SO and Sp
    blocks carry one."""
    pos = neg = 0
    for b in blocks:
        if b.sig is not None:
            spaces = 1 if b.kind == "zero" else len(WEIGHTS[b.kind])
            pos, neg = pos + spaces * b.sig.pos, neg + spaces * b.sig.neg
        elif b.kind in _FREE_PAIRS:
            half = ambient_contribution(b) // 2
            pos, neg = pos + half, neg + half
        else:
            raise AssertionError(f"{b.kind} blocks carry no form signature")
    return pos, neg


def spec_for(family: Family, blocks: Sequence[Block]) -> GroupSpec:
    """The group of the family whose standard representation the blocks fill."""
    try:
        if family in (Family.SU, Family.SO):
            return groups.FAMILIES[family].make(*form_signature(blocks))
        if family == Family.SP:
            # s = B(tau.,.) on the real model of Sp(p,q) has signature (2q, 2p)
            pos, neg = form_signature(blocks)
            if pos % 2 or neg % 2:
                raise ValueError("odd quaternionic signature")
            return groups.sp(neg // 2, pos // 2)
        total = sum(ambient_contribution(b) for b in blocks)
        if family == Family.SL_H:
            if total % 2:
                raise ValueError("odd quaternionic total")
            return groups.sl_h(total // 2)
        return groups.FAMILIES[family].make(total)
    except ValueError as exc:
        raise ScenarioError(f"no {family.value} group fits the blocks: {exc}") from exc


# the kinds that carry a form of their own, and so declare its signature
# (the zero block only in a real form), each with its message when it is
# missing; every other block carries none
_NEEDS_SIGNATURE = {"sesq_self": "SesqSelf blocks need a signature",
                    "imag_pair": "ImagPair blocks need a signature",
                    "zero": "zero blocks of real forms need a signature"}


def check_block(family: Family, b: Block) -> None:
    """Raise ScenarioError unless a block of this kind, dimension and
    signature may stand in a configuration of the family. This is the one
    home of the per-block rules; `normalize_blocks` runs it on every block
    and sweeps enumerate the unit blocks it accepts."""
    row = groups.FAMILIES[family]
    if b.kind not in row.kinds:
        raise ScenarioError(f"block kind {b.kind!r} is not valid for {family.value}")
    if b.dim < 1 or b.mult < 1:
        raise ScenarioError("block dimensions and multiplicities must be >= 1")
    signed = b.kind in _NEEDS_SIGNATURE and not (b.kind == "zero" and row.is_complex)
    if signed and b.sig is None:
        raise ScenarioError(_NEEDS_SIGNATURE[b.kind])
    if b.sig is not None and not signed:
        raise ScenarioError(f"{b.kind} blocks of {family.value} carry no signature")
    if row.eta == -1:
        # tau-stable pieces are quaternionic subspaces, hence even-dimensional
        if b.kind in ("real_cls", "split_pair") and b.d_eff % 2:
            raise ScenarioError("tau-stable blocks of quaternionic forms need even dimension")
        if b.kind == "zero" and b.dim % 2:
            raise ScenarioError("the zero block of a quaternionic form has even dimension")
    if b.kind == "zero" and row.algebra == "sp" and b.dim % 2:
        raise ScenarioError("the zero block of a symplectic form has even dimension")
    if b.kind == "zero" and row.eta_epsilon == -1 and not b.sig.is_vanishing():
        # skew s: i*s changes sign under tau, so tau-stable pieces have
        # vanishing signature
        raise ScenarioError("for Sp(2m,R) and SO*(2m) the zero block has vanishing signature")
    if b.kind == "zero" and family == Family.SP and (b.sig.pos % 2 or b.sig.neg % 2):
        raise ScenarioError("quaternionic zero blocks have even signature parts")


def normalize_blocks(spec: GroupSpec, blocks: Sequence[Block]) -> List[Block]:
    """Validate blocks against the family and put them in canonical order."""
    for b in blocks:
        check_block(spec.family, b)
    if sum(b.kind == "zero" for b in blocks) > 1:
        raise ScenarioError("give the zero weight space as a single aggregated block")
    filled = spec_for(spec.family, blocks)
    if filled != spec:
        raise ScenarioError(f"the blocks fill {filled.describe()}, not {spec.describe()}")

    ordered = sorted(blocks, key=lambda b: (_KIND_ORDER.index(b.kind), b.dim, b.mult,
                                            (b.sig.pos, b.sig.neg) if b.sig else (-1, -1),
                                            b.label))
    seen = set()
    final = []
    for i, b in enumerate(ordered):
        lab = b.label or f"b{i}"
        if lab in seen:
            raise ScenarioError(f"duplicate block label {lab!r}")
        seen.add(lab)
        final.append(Block(b.kind, b.dim, b.mult, b.sig, b.class_sig, b.mult_sig, lab))
    return final
