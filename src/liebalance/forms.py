"""Bi-isotypical components of modules with an invariant (iota, epsilon)-form.

A nondegenerate module with a bilinear (iota = identity) or sesquilinear
(iota = conjugation) invariant form splits orthogonally into bi-isotypical
pieces, and each piece is of one of two shapes: a class paired with its
(conjugate-)dual sitting as two isotropic halves ("dual" shape), or real
multiples of a single self-dual class ("sum" shape). The centralizer of the
acting group is a product of one classical factor per piece; only general
linear and unitary factors (plus the two-dimensional orthogonal degenerations)
contribute to the center of the centralizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .exact import Signature


class Iota(enum.Enum):
    IDENTITY = "identity"
    CONJUGATION = "conjugation"


@dataclass(frozen=True)
class FormKind:
    iota: Iota
    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (+1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if self.iota == Iota.CONJUGATION and self.epsilon == -1:
            # i * (skew sesquilinear) is symmetric sesquilinear, so this kind
            # is redundant and rejected to keep the case split canonical
            raise ValueError("skew sesquilinear forms are modeled as i times symmetric ones")


class Duality(enum.Enum):
    SELF_DUAL_SAME_EPS = "self_dual_same_eps"
    SELF_DUAL_OPPOSITE_EPS = "self_dual_opposite_eps"
    PAIRED = "paired"
    SESQUI_SELF_DUAL = "sesqui_self_dual"
    SESQUI_PAIRED = "sesqui_paired"


@dataclass(frozen=True)
class IrredClass:
    id: str
    dim: int
    duality: Duality
    partner: Optional[str] = None
    signature: Optional[Signature] = None   # sesqui_self_dual only

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("class dimension must be positive")
        paired = self.duality in (Duality.PAIRED, Duality.SESQUI_PAIRED)
        if paired and (self.partner is None or self.partner == self.id):
            raise ValueError("paired classes carry a distinct partner id")
        if not paired and self.partner is not None:
            raise ValueError("self-dual classes carry no partner")
        if self.duality == Duality.SESQUI_SELF_DUAL:
            if self.signature is None or self.signature.null != 0:
                raise ValueError("sesqui-self-dual classes carry a nondegenerate signature")
            if self.signature.dim != self.dim:
                raise ValueError("class signature dimension mismatch")
        elif self.signature is not None:
            raise ValueError("only sesqui-self-dual classes carry a signature")


@dataclass(frozen=True)
class IsotypicalBlock:
    cls: IrredClass
    multiplicity: int
    block_signature: Optional[Signature] = None  # sesquilinear blocks only

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if self.block_signature is not None:
            bs = self.block_signature
            if self.cls.duality == Duality.SESQUI_SELF_DUAL:
                if bs.null != 0:
                    raise ValueError("self-dual sesquilinear blocks are nondegenerate")
            if self.cls.duality == Duality.SESQUI_PAIRED and bs.pos != bs.neg:
                raise ValueError("paired blocks sit as isotropic halves: split signature")


class BlockShape(enum.Enum):
    DUAL = "dual"   # class x (conjugate-)dual, two isotropic halves
    SUM = "sum"     # real multiples of one self-dual class


def classify_block(kind: FormKind, block: IsotypicalBlock) -> BlockShape:
    """Which of the two model shapes a nondegenerate bi-isotypical block has."""
    d = block.cls.duality
    if kind.iota == Iota.IDENTITY:
        if d in (Duality.SESQUI_SELF_DUAL, Duality.SESQUI_PAIRED):
            raise ValueError("sesquilinear duality data with a bilinear form")
        if d == Duality.PAIRED or d == Duality.SELF_DUAL_OPPOSITE_EPS:
            return BlockShape.DUAL
        return BlockShape.SUM
    if d in (Duality.SESQUI_PAIRED, Duality.PAIRED, Duality.SELF_DUAL_OPPOSITE_EPS):
        # a class self-dual through a form of the opposite symmetry sits as
        # two isotropic halves; for sesquilinear forms that is the split
        # unitary presentation
        return BlockShape.DUAL
    if d == Duality.SESQUI_SELF_DUAL:
        return BlockShape.SUM
    raise ValueError("bilinear duality data with a sesquilinear form")


class FactorKind(enum.Enum):
    GL = "GL"            # GL(r, C)
    O_EVEN = "O2r"       # O(2r, C), dual shape with self-dual class
    SP_EVEN = "Sp2r"     # Sp(2r, C)
    U_SPLIT = "Urr"      # U(r, r)
    O_PLAIN = "Or"       # O(r, C), sum shape
    U_SIG = "Upq"        # U(p', q'), sum shape with multiplicity form D


@dataclass(frozen=True)
class CentralizerFactor:
    kind: FactorKind
    r: int
    signature: Optional[Signature] = None  # U_SIG only

    @property
    def center_dim(self) -> int:
        """Complex dimension of the factor's Lie-algebra center.

        gl(r) and u(p', q') x C-span carry a one-dimensional center; o(r) is
        centerless except for the abelian o(2); sp(2r) is always centerless.
        """
        if self.kind == FactorKind.GL:
            return 1
        if self.kind in (FactorKind.U_SPLIT, FactorKind.U_SIG):
            return 1
        if self.kind == FactorKind.O_EVEN:
            return 1 if self.r == 1 else 0
        if self.kind == FactorKind.O_PLAIN:
            return 1 if self.r == 2 else 0
        return 0

    def describe(self) -> str:
        if self.kind == FactorKind.GL:
            return f"GL({self.r},C)"
        if self.kind == FactorKind.O_EVEN:
            return f"O({2 * self.r},C)"
        if self.kind == FactorKind.SP_EVEN:
            return f"Sp({2 * self.r},C)"
        if self.kind == FactorKind.U_SPLIT:
            return f"U({self.r},{self.r})"
        if self.kind == FactorKind.O_PLAIN:
            return f"O({self.r},C)"
        return f"U({self.signature.pos},{self.signature.neg})"


def centralizer_factor(kind: FormKind, block: IsotypicalBlock) -> CentralizerFactor:
    """The centralizer factor contributed by one bi-isotypical block."""
    shape = classify_block(kind, block)
    r = block.multiplicity
    if shape == BlockShape.DUAL:
        if block.cls.duality in (Duality.PAIRED, Duality.SESQUI_PAIRED):
            return CentralizerFactor(FactorKind.GL, r)
        if kind.iota == Iota.CONJUGATION:
            return CentralizerFactor(FactorKind.U_SPLIT, r)
        if kind.epsilon == +1:
            return CentralizerFactor(FactorKind.O_EVEN, r)
        return CentralizerFactor(FactorKind.SP_EVEN, r)
    if kind.iota == Iota.IDENTITY:
        return CentralizerFactor(FactorKind.O_PLAIN, r)
    mult_sig = _multiplicity_signature(block)
    return CentralizerFactor(FactorKind.U_SIG, r, mult_sig)


def _multiplicity_signature(block: IsotypicalBlock) -> Signature:
    """Signature of the multiplicity form D, recovered from the block and class
    signatures: block = class (x) D, so with class (c+, c-) and D (a, b),
    block = (c+ a + c- b, c+ b + c- a)."""
    cs = block.cls.signature
    bs = block.block_signature
    if bs is None:
        raise ValueError("sesquilinear sum blocks need a block signature")
    r = block.multiplicity
    for a in range(r + 1):
        b = r - a
        if (cs.pos * a + cs.neg * b == bs.pos and
                cs.pos * b + cs.neg * a == bs.neg):
            return Signature(a, b)
    raise ValueError("block signature is not class (x) D for any real diagonal D")
