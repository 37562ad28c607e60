"""Isotypical block data describing how a reductive subgroup sits in G.

A scenario never constructs the subgroup H itself. It declares the isotypical
decomposition of the standard representation under H: for each block, the
dimension of the irreducible class, its multiplicity, how the block meets the
invariant form (duality), how complex conjugation / the quaternionic structure
permutes it, and the exact signature of the sesquilinear form s(v,v') =
B(tau v, v') it inherits when that form exists. Those are the only inputs the
classification consumes.

Block kinds by family:

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
* SO_C / SP_C: ``DualPair(d, r)`` and ``ZeroBlock(d0)``.

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


_FAMILY_KINDS = {
    Family.SL_C: {"cls"},
    Family.SL_R: {"real_cls", "conj_pair"},
    Family.SL_H: {"real_cls", "conj_pair"},
    Family.SU: {"sesq_self", "sesq_pair"},
    Family.SO: {"imag_pair", "split_pair", "quad_pair", "zero"},
    Family.SP_R: {"imag_pair", "split_pair", "quad_pair", "zero"},
    Family.SP: {"imag_pair", "split_pair", "quad_pair", "zero"},
    Family.SO_STAR: {"imag_pair", "split_pair", "quad_pair", "zero"},
    Family.SO_C: {"dual_pair", "zero"},
    Family.SP_C: {"dual_pair", "zero"},
}

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


def form_signature(blocks: Sequence[Block]) -> Tuple[int, int]:
    """(pos, neg) of the form the blocks carry: the Hermitian form of SU(p,q),
    the form on the real points of SO(p,q), or s = B(tau.,.) on the real model
    of Sp(p,q). Only SU, SO and Sp blocks carry one."""
    pos = neg = 0
    for b in blocks:
        if b.kind in ("sesq_self", "zero"):
            pos, neg = pos + b.sig.pos, neg + b.sig.neg
        elif b.kind == "imag_pair":
            pos, neg = pos + 2 * b.sig.pos, neg + 2 * b.sig.neg
        elif b.kind in ("sesq_pair", "split_pair"):
            pos, neg = pos + b.d_eff, neg + b.d_eff
        elif b.kind == "quad_pair":
            pos, neg = pos + 2 * b.d_eff, neg + 2 * b.d_eff
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


def normalize_blocks(spec: GroupSpec, blocks: Sequence[Block]) -> List[Block]:
    """Validate blocks against the family and put them in canonical order."""
    out = []
    zeros = [b for b in blocks if b.kind == "zero"]
    if len(zeros) > 1:
        raise ScenarioError("give the zero weight space as a single aggregated block")
    for b in blocks:
        if b.kind not in _FAMILY_KINDS[spec.family]:
            raise ScenarioError(f"block kind {b.kind!r} is not valid for {spec.family.value}")
        if b.dim < 1 or b.mult < 1:
            raise ScenarioError("block dimensions and multiplicities must be >= 1")
        out.append(b)

    total = sum(ambient_contribution(b) for b in out)
    n = spec.ambient_dim
    if total != n:
        raise ScenarioError(f"blocks cover dimension {total}, ambient needs {n}")

    ee = spec.eta_epsilon
    for b in out:
        if b.kind == "imag_pair" and b.sig is None:
            raise ScenarioError("ImagPair blocks need a signature")
        if b.kind == "zero" and spec.family in (Family.SO, Family.SP_R, Family.SP,
                                                Family.SO_STAR) and b.sig is None:
            raise ScenarioError("zero blocks of real forms need a signature")

    if spec.is_quaternionic:
        # tau-stable pieces are quaternionic subspaces, hence even-dimensional
        for b in out:
            if b.kind in ("real_cls", "split_pair") and b.d_eff % 2:
                raise ScenarioError("tau-stable blocks of quaternionic forms need even dimension")
            if b.kind == "zero" and b.dim % 2:
                raise ScenarioError("the zero block of a quaternionic form has even dimension")
    for b in out:
        if b.kind == "zero" and spec.family in (Family.SP_R, Family.SP_C) and b.dim % 2:
            raise ScenarioError("the zero block of a symplectic form has even dimension")

    if ee == -1:
        # skew s: i*s changes sign under tau, so tau-stable pieces have
        # vanishing signature
        for b in out:
            if b.kind == "zero" and b.sig is not None and not b.sig.is_vanishing():
                raise ScenarioError("for Sp(2m,R) and SO*(2m) the zero block has vanishing signature")

    if spec.family == Family.SU:
        pos, neg = form_signature(out)
        if (pos, neg) != (spec.p, spec.q):
            raise ScenarioError(
                f"block signatures add up to ({pos},{neg}), the form has ({spec.p},{spec.q})")
    if spec.family == Family.SO:
        pos, neg = form_signature(out)
        if (pos, neg) != (spec.p, spec.q):
            raise ScenarioError(
                f"real points carry signature ({pos},{neg}), the form has ({spec.p},{spec.q})")
    if spec.family == Family.SP:
        # s = B(tau.,.) restricted to the real model has signature (2q, 2p)
        pos, neg = form_signature(out)
        if (pos, neg) != (2 * spec.q, 2 * spec.p):
            raise ScenarioError(
                f"s-signatures add up to ({pos},{neg}); Sp({spec.p},{spec.q}) "
                f"needs ({2 * spec.q},{2 * spec.p})")
        for b in out:
            if b.kind == "zero" and (b.sig.pos % 2 or b.sig.neg % 2):
                raise ScenarioError("quaternionic zero blocks have even signature parts")

    ordered = sorted(out, key=lambda b: (_KIND_ORDER.index(b.kind), b.dim, b.mult,
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
