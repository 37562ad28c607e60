"""Weights of the center of the centralizer on the standard and adjoint
representations.

Coordinates: every block kind's weights are read from ``blocks.WEIGHTS`` as
combinations of the block's real coordinates (one for real-valued or pure
imaginary weights, a complex pair for free ones). Where the ambient group is
special linear, the trace relation cuts the center c out of those
coordinates. A basis of c* is chosen deterministically by row reduction,
every weight is stored as an exact pair of rational vectors (real part,
imaginary part) in that basis, and all later convexity computations happen
in these coordinates. The same table gives the matrix model its slices and
its center, but not its forms: ``modelbuild`` builds T, B and s per block
kind, and the oracle recovers the adjoint weights, their dimensions and
signatures numerically, so a wrong entry of the table is caught there.

Signatures of the Killing sesquilinear form s(X, X') = Trace(sigma(X) X') on
pure imaginary adjoint weight spaces come from closed-form product rules; each
family contributes one global proportionality sign, recorded in the constant
tables below and pinned against the floating-point oracle by the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .blocks import WEIGHTS, Block, normalize_blocks
from .exact import Signature
from .groups import Family, GroupSpec
from . import linalg

Vec = Tuple[Fraction, ...]

# Global sign of s on Hom(I_l, I_lbar) root spaces of the special linear
# families: the symmetric/antisymmetric split gives |signature| = d, and the
# quaternionic twist flips the sign.
SL_CONJ_PAIR_SIGN = {Family.SL_R: +1, Family.SL_H: -1}

# Global sign multiplying the signature product rule on difference spaces
# Hom(I_a, I_b): s = const * Trace(f* f') with const of this sign. Calibration
# against exact Gram matrices puts it at -1 uniformly.
DIFF_SIGN = {
    Family.SU: -1,
    Family.SO: -1,
    Family.SP: -1,
    Family.SP_R: -1,
    Family.SO_STAR: -1,
}

# Global sign on the +-2l spaces (epsilon-alternating forms on I_l),
# calibrated against exact Gram matrices of Trace(sigma(X) X') on explicit
# weight-space bases (pinned by the test suite and the numeric oracle).
DOUBLE_SIGN = {
    Family.SO: -1,
    Family.SP_R: +1,
    Family.SO_STAR: +1,
    Family.SP: -1,
}


def _zero_vec(k: int) -> Vec:
    return tuple(Fraction(0) for _ in range(k))


def _is_zero(v: Vec) -> bool:
    return all(x == 0 for x in v)


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


def _sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class StandardRoot:
    label: str
    re: Vec
    im: Vec
    dim: int
    pure_imaginary: bool
    sig: Optional[Signature]
    block_label: str
    negation: Optional[str] = None   # label of the root -l when it is a root

    @property
    def is_zero(self) -> bool:
        return self.label == "0"


@dataclass(frozen=True)
class AdjointRoot:
    label: str
    re: Vec
    im: Vec
    dim: int
    pure_imaginary: bool
    sig: Optional[Signature]
    source: Tuple[str, ...]   # ("hom", a, b): maps I_a -> I_b; ("wedge", a): forms on I_a

    @property
    def value_key(self) -> Tuple[Vec, Vec]:
        return (self.re, self.im)


@dataclass
class RootSystem:
    spec: GroupSpec
    blocks: List[Block]
    dim_c: int
    standard: List[StandardRoot]
    zero: Optional[StandardRoot]
    adjoint: List[AdjointRoot]
    dim_g0: int

    def standard_by_label(self) -> Dict[str, StandardRoot]:
        d = {r.label: r for r in self.standard}
        if self.zero is not None:
            d[self.zero.label] = self.zero
        return d

    def adjoint_by_label(self) -> Dict[str, AdjointRoot]:
        return {r.label: r for r in self.adjoint}

    def dim_audit(self) -> Tuple[int, int]:
        """(sum of weight space dims incl. the zero space, closed-form dim g)."""
        total = self.dim_g0 + sum(r.dim for r in self.adjoint)
        return total, self.spec.dim_complexified

    @functools.cached_property
    def adjoint_spans(self) -> bool:
        """Whether the real and imaginary parts of the adjoint weights span
        c*, as they do when c is the center of a centralizer in a semisimple
        group (the abelian SO(2,C) is the exception the oracle still uses)."""
        if self.dim_c == 0:
            return True
        # the adjoint weights repeat their parts heavily: rank each once
        parts = dict.fromkeys(part for r in self.adjoint for part in (r.re, r.im))
        rows = [list(part) for part in parts if any(part)]
        return bool(rows) and linalg.frac_rank(rows) == self.dim_c


def _reduce_map(raw_dim: int, relations: List[List[Fraction]]):
    """Basis of the solution space of the relations; returns the raw x k
    matrix A whose columns form the basis, as rows of length k."""
    if not relations:
        a = [[Fraction(1) if i == j else Fraction(0) for j in range(raw_dim)]
             for i in range(raw_dim)]
        return a, raw_dim
    basis = linalg.frac_nullspace(relations, raw_dim)
    k = len(basis)
    a = [[basis[c][i] for c in range(k)] for i in range(raw_dim)]
    return a, k


def _combine(coefs, coords: Sequence[Vec], k: int) -> Vec:
    """The combination of the coordinates with these coefficients."""
    out = _zero_vec(k)
    for c, v in zip(coefs, coords):
        if c:
            out = tuple(o + c * x for o, x in zip(out, v))
    return out


def _product_sig(s1: Signature, s2: Signature, sign: int) -> Signature:
    pos = s1.pos * s2.pos + s1.neg * s2.neg
    neg = s1.pos * s2.neg + s1.neg * s2.pos
    out = Signature(pos, neg)
    return out if sign > 0 else out.flip()


def _wedge_sig(s: Signature, epsilon: int, sign: int) -> Signature:
    p, n = s.pos, s.neg
    if epsilon == +1:   # alternating forms
        out = Signature(p * (p - 1) // 2 + n * (n - 1) // 2, p * n)
    else:               # symmetric forms
        out = Signature(p * (p + 1) // 2 + n * (n + 1) // 2, p * n)
    return out if sign > 0 else out.flip()


def wedge_dim(d: int, epsilon: int) -> int:
    return d * (d - 1) // 2 if epsilon == +1 else d * (d + 1) // 2


def standard_roots(spec: GroupSpec, blocks: Sequence[Block]) -> RootSystem:
    """Weights of c on the standard representation, with exact coordinates.

    Each block contributes the weights of its kind in ``blocks.WEIGHTS``, as
    combinations of the block's real coordinates. Where the group is special
    linear, c is traceless: the dimension-weighted sum of the weights vanishes
    on it, and its real and imaginary parts are the relations cutting c out of
    the coordinates. Returns a RootSystem whose ``adjoint`` part is not filled
    in yet; use :func:`root_system` for the full decomposition.
    """
    blocks = normalize_blocks(spec, blocks)
    weighted = [b for b in blocks if b.kind != "zero"]
    # the blocks' real coordinates, numbered in block order
    spans, raw = [], 0
    for b in weighted:
        size = len(WEIGHTS[b.kind][0][1])
        spans.append(range(raw, raw + size))
        raw += size

    relations: List[List[Fraction]] = []
    if spec.is_sl_like:
        trace = [[Fraction(0)] * raw, [Fraction(0)] * raw]
        for b, span in zip(weighted, spans):
            for _suffix, re, im in WEIGHTS[b.kind]:
                for j, cr, ci in zip(span, re, im):
                    trace[0][j] += b.d_eff * cr
                    trace[1][j] += b.d_eff * ci
        relations = [row for row in trace if any(row)]
    a, k = _reduce_map(raw, relations)
    # row i of the reduce map is raw coordinate i in the basis of c*
    coords = [tuple(row) for row in a]

    roots: List[StandardRoot] = []
    for b, span in zip(weighted, spans):
        table = WEIGHTS[b.kind]
        own = [coords[j] for j in span]
        for suffix, re, im in table:
            negation = next((f"{b.label}:{s}" for s, re2, im2 in table
                             if re2 == _neg(re) and im2 == _neg(im)), None)
            pure_im = not any(re)
            sig = None
            if pure_im:
                # the declared signature is that of the weight +t; for skew s
                # the form i*s changes sign on its negation
                sig = b.sig.flip() if spec.eta_epsilon == -1 and im[0] < 0 else b.sig
            roots.append(StandardRoot(f"{b.label}:{suffix}", _combine(re, own, k),
                                      _combine(im, own, k), b.d_eff, pure_im, sig,
                                      b.label, negation))
    # real and imaginary parts of the weights still generate c* after the
    # trace relation cuts it down
    if relations and k:
        vecs = [list(r.re) for r in roots] + [list(r.im) for r in roots]
        if linalg.frac_rank(vecs) != k:
            raise AssertionError("standard weights fail to span the dual of c")
    zero_root = next((StandardRoot("0", _zero_vec(k), _zero_vec(k), b.dim, True, b.sig,
                                   b.label, negation="0")
                      for b in blocks if b.kind == "zero"), None)
    return RootSystem(spec, blocks, k, roots, zero_root, [], 0)


def adjoint_roots(spec: GroupSpec, sys: RootSystem) -> List[AdjointRoot]:
    if spec.is_sl_like:
        return _sl_adjoint(spec, sys)
    return _orth_adjoint(spec, sys)


def _sl_adjoint(spec: GroupSpec, sys: RootSystem) -> List[AdjointRoot]:
    out: List[AdjointRoot] = []
    seen_values = set()
    for ra in sys.standard:
        for rb in sys.standard:
            if ra.label == rb.label:
                continue
            re = _sub(rb.re, ra.re)
            im = _sub(rb.im, ra.im)
            if _is_zero(re) and _is_zero(im):
                raise AssertionError("distinct weights produced an identical difference")
            pure_im = _is_zero(re)
            sig = None
            if pure_im:
                sig = _sl_pair_signature(spec, sys, ra, rb)
            key = (re, im)
            if key in seen_values:
                raise AssertionError("weight differences are not pairwise distinct")
            seen_values.add(key)
            out.append(AdjointRoot(f"{ra.label}->{rb.label}", re, im,
                                   ra.dim * rb.dim, pure_im, sig,
                                   ("hom", ra.label, rb.label)))
    out.sort(key=lambda r: r.label)
    return out


def _sl_pair_signature(spec, sys, ra, rb) -> Signature:
    fam = spec.family
    if fam == Family.SU:
        if ra.sig is None or rb.sig is None:
            raise AssertionError("pure imaginary difference needs signed weights")
        return _product_sig(ra.sig, rb.sig, DIFF_SIGN[fam])
    if fam in (Family.SL_R, Family.SL_H):
        # conjugate pair l, lbar: split into symmetric and alternating maps
        if ra.block_label != rb.block_label or ra.dim != rb.dim:
            raise AssertionError("pure imaginary difference outside a conjugate pair")
        d = ra.dim
        s = SL_CONJ_PAIR_SIGN[fam] * d
        return Signature((d * d + s) // 2, (d * d - s) // 2)
    raise AssertionError("complex family has no pure imaginary adjoint weight")


def _orth_adjoint(spec: GroupSpec, sys: RootSystem) -> List[AdjointRoot]:
    eps = spec.epsilon
    fam = spec.family
    nonzero = sys.standard
    by_label = {r.label: r for r in nonzero}
    values: Dict[Tuple[Vec, Vec], AdjointRoot] = {}

    def add(root: AdjointRoot):
        prev = values.get(root.value_key)
        if prev is None:
            values[root.value_key] = root
        else:
            # the same value from the mirrored pair (-b, -a); keep one space
            if (prev.dim != root.dim or prev.pure_imaginary != root.pure_imaginary
                    or prev.sig != root.sig):
                raise AssertionError("inconsistent duplicate weight value")

    for ra in nonzero:
        for rb in nonzero:
            if ra.label == rb.label:
                continue
            if rb.label == ra.negation:
                # maps I_a -> I_{-a} are (-epsilon)-symmetric forms on I_a
                d = ra.dim
                wd = wedge_dim(d, eps)
                if wd == 0:
                    continue
                re = _sub(rb.re, ra.re)
                im = _sub(rb.im, ra.im)
                pure_im = ra.pure_imaginary
                sig = _wedge_sig(ra.sig, eps, DOUBLE_SIGN[fam]) if pure_im else None
                add(AdjointRoot(f"wedge({ra.label})", re, im, wd, pure_im, sig,
                                ("wedge", ra.label)))
                continue
            re = _sub(rb.re, ra.re)
            im = _sub(rb.im, ra.im)
            if spec.eta is not None and ra.block_label == rb.block_label \
                    and (rb.re, rb.im) == (ra.re, _neg(ra.im)):
                # tau carries a weight space to that of the conjugate weight,
                # a distinct weight of the same block only in a free
                # quadruple: the difference is pure imaginary, and the
                # symmetric versus alternating split gives signature eta * d
                d = ra.dim
                s = spec.eta * d
                sig = Signature((d * d + s) // 2, (d * d - s) // 2)
                add(AdjointRoot(f"{ra.label}->{rb.label}", re, im, d * d,
                                True, sig, ("hom", ra.label, rb.label)))
                continue
            pure_im = ra.pure_imaginary and rb.pure_imaginary
            sig = None
            if pure_im:
                sig = _product_sig(ra.sig, rb.sig, DIFF_SIGN[fam])
            add(AdjointRoot(f"{ra.label}->{rb.label}", re, im, ra.dim * rb.dim,
                            pure_im, sig, ("hom", ra.label, rb.label)))
    if sys.zero is not None:
        z = sys.zero
        for ra in nonzero:
            re, im = _sub(ra.re, z.re), _sub(ra.im, z.im)
            pure_im = ra.pure_imaginary
            sig = None
            if pure_im and spec.family != Family.SO_C and spec.family != Family.SP_C:
                sig = _product_sig(z.sig, ra.sig, DIFF_SIGN[fam])
            add(AdjointRoot(f"0->{ra.label}", re, im, z.dim * ra.dim, pure_im, sig,
                            ("hom", "0", ra.label)))
    out = sorted(values.values(), key=lambda r: r.label)
    # sanity: values are distinct and closed under negation
    keys = {r.value_key for r in out}
    for r in out:
        if (_neg(r.re), _neg(r.im)) not in keys:
            raise AssertionError("adjoint weights are not closed under negation")
    return out


def root_system(spec: GroupSpec, blocks: Sequence[Block]) -> RootSystem:
    """Full decomposition: standard weights, adjoint weights, zero-space dim."""
    sys = standard_roots(spec, blocks)
    sys.adjoint = adjoint_roots(spec, sys)
    if spec.is_sl_like:
        sys.dim_g0 = sum(r.dim * r.dim for r in sys.standard) - 1
    else:
        # gl(I_l) once for each pair of weights +-l, and the forms on I_0
        d0 = sys.zero.dim if sys.zero is not None else 0
        sys.dim_g0 = wedge_dim(d0, spec.epsilon) + sum(r.dim ** 2 for r in sys.standard) // 2
    total, expect = sys.dim_audit()
    if total != expect:
        raise AssertionError(f"dimension audit failed: {total} != {expect}")
    return sys
