"""Weights of the center of the centralizer on the standard and adjoint
representations.

Coordinates: the center c is cut out of one real parameter per block weight
(one for real-valued or pure imaginary weights, a complex pair for free ones)
by the trace relation where the ambient group is special linear. A basis of
c* is chosen deterministically by row reduction, every weight is stored as an
exact pair of rational vectors (real part, imaginary part) in that basis, and
all later convexity computations happen in these coordinates.

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

from .blocks import Block, normalize_blocks
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
    # raw parameter layout behind the chosen basis of c*: one labelled raw
    # coordinate per block parameter, and the raw x dim_c solution basis of
    # the trace relations
    coord_units: List[Tuple[str, str]] = None
    reduce_matrix: List[List[Fraction]] = None

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
        rows = [list(part) for r in self.adjoint for part in (r.re, r.im)]
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


def _project(raw_vec: List[Fraction], a) -> Vec:
    k = len(a[0]) if a else 0
    return tuple(sum((raw_vec[i] * a[i][c] for i in range(len(raw_vec))),
                     Fraction(0)) for c in range(k))


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

    Returns a RootSystem whose ``adjoint`` part is not filled in yet; use
    :func:`root_system` for the full decomposition.
    """
    blocks = normalize_blocks(spec, blocks)
    if spec.is_sl_like:
        return _sl_standard(spec, blocks)
    return _orth_standard(spec, blocks)


def _sl_standard(spec: GroupSpec, blocks: List[Block]) -> RootSystem:
    coords: List[Tuple[str, str]] = []   # (block label, which coordinate)
    for b in blocks:
        if b.kind in ("real_cls", "sesq_self"):
            coords.append((b.label, "t"))
        elif b.kind in ("conj_pair", "sesq_pair", "cls"):
            coords.append((b.label, "x"))
            coords.append((b.label, "y"))
    raw = len(coords)
    index = {c: i for i, c in enumerate(coords)}

    relations: List[List[Fraction]] = []
    if spec.family in (Family.SL_R, Family.SL_H):
        rel = [Fraction(0)] * raw
        for b in blocks:
            if b.kind == "real_cls":
                rel[index[(b.label, "t")]] = Fraction(b.d_eff)
            else:
                rel[index[(b.label, "x")]] = Fraction(2 * b.d_eff)
        relations.append(rel)
    elif spec.family == Family.SL_C:
        for which in ("x", "y"):
            rel = [Fraction(0)] * raw
            for b in blocks:
                rel[index[(b.label, which)]] = Fraction(b.d_eff)
            relations.append(rel)
    else:  # SU
        rel = [Fraction(0)] * raw
        for b in blocks:
            if b.kind == "sesq_self":
                rel[index[(b.label, "t")]] = Fraction(b.d_eff)
            else:
                rel[index[(b.label, "y")]] = Fraction(2 * b.d_eff)
        relations.append(rel)

    a, k = _reduce_map(raw, relations)

    def unit_raw(lbl, which):
        v = [Fraction(0)] * raw
        v[index[(lbl, which)]] = Fraction(1)
        return v

    roots: List[StandardRoot] = []
    zero_raw = [Fraction(0)] * raw
    for b in blocks:
        if b.kind == "real_cls":
            roots.append(StandardRoot(f"{b.label}:t", _project(unit_raw(b.label, "t"), a),
                                      _project(zero_raw, a), b.d_eff, False, None, b.label))
        elif b.kind == "sesq_self":
            roots.append(StandardRoot(f"{b.label}:il", _project(zero_raw, a),
                                      _project(unit_raw(b.label, "t"), a),
                                      b.d_eff, True, b.sig, b.label))
        elif b.kind in ("conj_pair", "cls"):
            x = _project(unit_raw(b.label, "x"), a)
            y = _project(unit_raw(b.label, "y"), a)
            roots.append(StandardRoot(f"{b.label}:z", x, y, b.d_eff, False, None, b.label))
            if b.kind == "conj_pair":
                roots.append(StandardRoot(f"{b.label}:zc", x, _neg(y), b.d_eff,
                                          False, None, b.label))
        elif b.kind == "sesq_pair":
            x = _project(unit_raw(b.label, "x"), a)
            y = _project(unit_raw(b.label, "y"), a)
            roots.append(StandardRoot(f"{b.label}:z", x, y, b.d_eff, False, None, b.label))
            roots.append(StandardRoot(f"{b.label}:mzc", _neg(x), y, b.d_eff,
                                      False, None, b.label))
    # real and imaginary parts of the weights generate c*
    vecs = [list(r.re) for r in roots] + [list(r.im) for r in roots]
    if k and linalg.frac_rank(vecs) != k:
        raise AssertionError("standard weights fail to span the dual of c")
    return RootSystem(spec, blocks, k, roots, None, [], 0,
                      coord_units=coords, reduce_matrix=a)


def _orth_standard(spec: GroupSpec, blocks: List[Block]) -> RootSystem:
    flip_minus = (spec.eta_epsilon == -1)
    coords: List[Tuple[str, str]] = []
    for b in blocks:
        if b.kind == "imag_pair":
            coords.append((b.label, "t"))
        elif b.kind == "split_pair":
            coords.append((b.label, "u"))
        elif b.kind in ("quad_pair", "dual_pair"):
            coords.append((b.label, "x"))
            coords.append((b.label, "y"))
    raw = len(coords)
    index = {c: i for i, c in enumerate(coords)}
    a, k = _reduce_map(raw, [])

    def unit(lbl, which):
        v = [Fraction(0)] * raw
        v[index[(lbl, which)]] = Fraction(1)
        return _project(v, a)

    zero_v = _zero_vec(k)
    roots: List[StandardRoot] = []
    zero_root: Optional[StandardRoot] = None
    for b in blocks:
        if b.kind == "imag_pair":
            t = unit(b.label, "t")
            neg_sig = b.sig.flip() if flip_minus else b.sig
            roots.append(StandardRoot(f"{b.label}:+l", zero_v, t, b.d_eff, True,
                                      b.sig, b.label, negation=f"{b.label}:-l"))
            roots.append(StandardRoot(f"{b.label}:-l", zero_v, _neg(t), b.d_eff, True,
                                      neg_sig, b.label, negation=f"{b.label}:+l"))
        elif b.kind == "split_pair":
            u = unit(b.label, "u")
            roots.append(StandardRoot(f"{b.label}:+u", u, zero_v, b.d_eff, False,
                                      None, b.label, negation=f"{b.label}:-u"))
            roots.append(StandardRoot(f"{b.label}:-u", _neg(u), zero_v, b.d_eff, False,
                                      None, b.label, negation=f"{b.label}:+u"))
        elif b.kind in ("quad_pair", "dual_pair"):
            x = unit(b.label, "x")
            y = unit(b.label, "y")
            roots.append(StandardRoot(f"{b.label}:+z", x, y, b.d_eff, False, None,
                                      b.label, negation=f"{b.label}:-z"))
            roots.append(StandardRoot(f"{b.label}:-z", _neg(x), _neg(y), b.d_eff, False,
                                      None, b.label, negation=f"{b.label}:+z"))
            if b.kind == "quad_pair":
                roots.append(StandardRoot(f"{b.label}:+zc", x, _neg(y), b.d_eff, False,
                                          None, b.label, negation=f"{b.label}:-zc"))
                roots.append(StandardRoot(f"{b.label}:-zc", _neg(x), y, b.d_eff, False,
                                          None, b.label, negation=f"{b.label}:+zc"))
        elif b.kind == "zero":
            zero_root = StandardRoot("0", zero_v, zero_v, b.dim, True, b.sig, b.label,
                                     negation="0")
    sys = RootSystem(spec, blocks, k, roots, zero_root, [], 0,
                     coord_units=coords, reduce_matrix=a)
    return sys


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


def _is_quad_conjugate(sys: RootSystem, ra: StandardRoot, rb: StandardRoot) -> bool:
    if ra.block_label != rb.block_label:
        return False
    block = next(b for b in sys.blocks if b.label == ra.block_label)
    if block.kind != "quad_pair":
        return False
    ta = ra.label.rsplit(":", 1)[1]
    tb = rb.label.rsplit(":", 1)[1]
    return {ta, tb} in ({"+z", "+zc"}, {"-z", "-zc"})


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
            if _is_quad_conjugate(sys, ra, rb):
                # a weight against its conjugate inside one free quadruple:
                # the difference is pure imaginary, and the symmetric versus
                # alternating split gives signature eta * d
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
        d0 = sys.zero.dim if sys.zero is not None else 0
        per_pair = 0
        for b in sys.blocks:
            if b.kind in ("imag_pair", "split_pair", "dual_pair"):
                per_pair += b.d_eff ** 2
            elif b.kind == "quad_pair":
                per_pair += 2 * b.d_eff ** 2
        sys.dim_g0 = wedge_dim(d0, spec.epsilon) + per_pair
    total, expect = sys.dim_audit()
    if total != expect:
        raise AssertionError(f"dimension audit failed: {total} != {expect}")
    return sys
