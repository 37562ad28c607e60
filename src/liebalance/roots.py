"""Weights of the center of the centralizer on the standard and adjoint
representations.

Coordinates: every block kind's weights are read from ``blocks.WEIGHTS`` as
combinations of the block's real coordinates (one for real-valued or pure
imaginary weights, a complex pair for free ones). Where the ambient group is
special linear, the trace relation cuts the center c out of those
coordinates. The relations are integer rows, and a basis of c* is chosen
deterministically by fraction-free row reduction (`linalg.int_nullspace`),
which gives it scaled once to integers by the least common denominator of
its entries: no step here eliminates over Q(i). Every weight is computed,
and checked, as a pair of integer vectors (real part, imaginary part) over
that one denominator, then stored as an exact pair of rational vectors in
the basis, and all later convexity computations happen in these
coordinates; a sweep keys its balancedness questions on the integer
vectors, which span the same rays. The same table gives the matrix
model its slices and its center, but not its forms: ``modelbuild`` builds T,
B and s per block kind, and the oracle recovers the adjoint weights, their
dimensions and signatures numerically, so a wrong entry of the table is
caught there.

Everything but the signatures depends only on the family and the blocks'
skeleton, their kinds, dims, multiplicities and labels in canonical order:
``weight_geometry`` builds that part, and signing it is the one place where
signatures are computed. ``root_system`` validates the blocks, signatures
included, takes the geometry, signs it and audits the dimensions; a sweep
passes a memo of ``weight_geometry`` that lives as long as the sweep.

Signatures of the Killing sesquilinear form s(X, X') = Trace(sigma(X) X') on
pure imaginary adjoint weight spaces come from closed-form rules whose signs
are read from the group:

* Hom(I_a, I_-a), the (-epsilon)-symmetric forms on I_a: the signature of
  the forms' space, with sign -eta*epsilon;
* Hom(I_a, I_b) where tau carries I_a onto I_b in the same block: the
  symmetric versus alternating split, signature eta*d;
* any other Hom(I_a, I_b): s = -Trace(f* f'), the product of the two
  weights' signatures with the uniform sign -1.

The test suite pins these signs against exact Gram matrices, and the
floating-point oracle checks them on every instance it draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .blocks import WEIGHTS, Block, normalize_blocks
from .exact import Signature
from .groups import Family, FamilyParams, GroupSpec
from . import groups, linalg

Vec = Tuple[Fraction, ...]
IntVec = Tuple[int, ...]


def _neg(v: IntVec) -> IntVec:
    return tuple(-x for x in v)


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


@dataclass
class RootSystem:
    spec: GroupSpec
    blocks: List[Block]
    dim_c: int
    standard: List[StandardRoot]
    zero: Optional[StandardRoot]
    adjoint: List[AdjointRoot]
    dim_g0: int
    # the geometry's integer (re, im) of each adjoint weight, in `adjoint` order
    adjoint_parts: Tuple[Tuple[IntVec, IntVec], ...]

    def __post_init__(self):
        self._by_label = {r.label: r for r in self.standard}
        if self.zero is not None:
            self._by_label[self.zero.label] = self.zero

    def standard_by_label(self) -> Dict[str, StandardRoot]:
        """Each standard weight by label, the zero weight last: one table,
        built with the root system and shared by every reader."""
        return self._by_label

    def dim_audit(self) -> Tuple[int, int]:
        """(sum of weight space dims incl. the zero space, closed-form dim g)."""
        total = self.dim_g0 + sum(r.dim for r in self.adjoint)
        return total, self.spec.dim_complexified


# a block as the weight geometry reads it: (kind, dim, mult, label)
Skeleton = Tuple[Tuple[str, int, int, str], ...]


@dataclass(frozen=True)
class WeightGeometry:
    """A root system without its signatures. Coordinates, labels, dimensions
    and sources, dim c and dim g0 depend only on the family and the skeleton
    of the blocks in canonical order. Every root here has sig None;
    `space_sigs` (for `_spaces(zero, standard)`) and `adjoint_sigs` record
    where each signature comes from."""
    dim_c: int
    standard: Tuple[StandardRoot, ...]
    zero: Optional[StandardRoot]
    adjoint: Tuple[AdjointRoot, ...]
    dim_g0: int
    space_sigs: Tuple[Optional[Tuple[int, bool]], ...]
    adjoint_sigs: Tuple[Optional[Tuple], ...]
    # each adjoint weight's (re, im) as integer vectors over one common
    # denominator: the same rays, for keys that need no Fractions
    adjoint_parts: Tuple[Tuple[IntVec, IntVec], ...]


def _reduce_map(raw_dim: int, relations: List[List[int]]):
    """Basis of the solution space of the integer relations, scaled to
    integers by the least common denominator of its entries
    (`linalg.int_nullspace`). Returns the raw x k integer matrix whose
    columns form the basis, as rows of length k, then k and the
    denominator."""
    basis, den = linalg.int_nullspace(relations, raw_dim)
    a = [tuple(v[i] for v in basis) for i in range(raw_dim)]
    return a, len(basis), den


def _over(den: int) -> Callable[[IntVec], Vec]:
    """Integer vectors over the denominator as exact vectors; each distinct
    entry's Fraction is built once."""
    fractions: Dict[int, Fraction] = {}

    def exact(v: IntVec) -> Vec:
        for x in v:
            if x not in fractions:
                fractions[x] = Fraction(x, den)
        return tuple(map(fractions.__getitem__, v))
    return exact


def _product_sig(s1: Signature, s2: Signature) -> Signature:
    """s = -Trace(f* f') on Hom(I_a, I_b): the product of the two forms'
    signatures, flipped."""
    return Signature(s1.pos * s2.neg + s1.neg * s2.pos,
                     s1.pos * s2.pos + s1.neg * s2.neg)


def _wedge_sig(s: Signature, epsilon: int, sign: int) -> Signature:
    p, n = s.pos, s.neg
    if epsilon == +1:   # alternating forms
        out = Signature(p * (p - 1) // 2 + n * (n - 1) // 2, p * n)
    else:               # symmetric forms
        out = Signature(p * (p + 1) // 2 + n * (n + 1) // 2, p * n)
    return out if sign > 0 else out.flip()


def wedge_dim(d: int, epsilon: int) -> int:
    return d * (d - 1) // 2 if epsilon == +1 else d * (d + 1) // 2


def skeleton(blocks: Sequence[Block]) -> Skeleton:
    """What the weight geometry reads of each block."""
    return tuple((b.kind, b.dim, b.mult, b.label) for b in blocks)


def _spaces(zero: Optional[StandardRoot], standard: Sequence[StandardRoot]):
    """The weight spaces, the zero space first so its adjoint spaces keep
    their "0->l" labels."""
    return list(standard) if zero is None else [zero, *standard]


def _standard_weights(row: FamilyParams, skeleton: Skeleton):
    """Weights of c on the standard representation, with exact coordinates.

    Each block contributes the weights of its kind in ``blocks.WEIGHTS``, as
    combinations of the block's real coordinates. Where the group is special
    linear, c is traceless: the dimension-weighted sum of the weights vanishes
    on it, and its real and imaginary parts are the relations cutting c out of
    the coordinates. Every weight is computed as an integer vector over the
    denominator of the scaled basis of c*. Returns dim c, the conversion of
    such vectors to exact ones, the weight spaces in `_spaces` order, their
    integer (re, im), and for each the (block index, flipped) its signature
    comes from, or None.
    """
    weighted = [(i, kind, dim * mult, label)
                for i, (kind, dim, mult, label) in enumerate(skeleton) if kind != "zero"]
    # the blocks' real coordinates, numbered in block order
    spans, raw = [], 0
    for _i, kind, _d, _label in weighted:
        size = len(WEIGHTS[kind][0][1])
        spans.append(range(raw, raw + size))
        raw += size

    relations: List[List[int]] = []
    if row.is_sl_like:
        trace = [[0] * raw, [0] * raw]
        for (_i, kind, d_eff, _label), span in zip(weighted, spans):
            for _suffix, re, im in WEIGHTS[kind]:
                for j, cr, ci in zip(span, re, im):
                    trace[0][j] += d_eff * cr
                    trace[1][j] += d_eff * ci
        relations = [r for r in trace if any(r)]
    # row i of the reduce map is raw coordinate i in the basis of c*
    coords, k, den = _reduce_map(raw, relations)
    exact = _over(den)

    spaces: List[StandardRoot] = []
    parts: List[Tuple[IntVec, IntVec]] = []
    sigs: List[Optional[Tuple[int, bool]]] = []
    # the zero space first, in `_spaces` order
    for i, (kind, dim, _mult, label) in enumerate(skeleton):
        if kind == "zero":
            origin = (0,) * k
            spaces.append(StandardRoot("0", exact(origin), exact(origin), dim, True, None,
                                       label, negation="0"))
            parts.append((origin, origin))
            sigs.append((i, False))
            break
    for (i, kind, d_eff, label), span in zip(weighted, spans):
        table = WEIGHTS[kind]
        own = [coords[j] for j in span]
        for suffix, re, im in table:
            negation = next((f"{label}:{s}" for s, re2, im2 in table
                             if re2 == _neg(re) and im2 == _neg(im)), None)
            pure_im = not any(re)
            # integer combinations of the block's coordinates
            re_i, im_i = (tuple(sum(c * v[j] for c, v in zip(coefs, own)) for j in range(k))
                          for coefs in (re, im))
            spaces.append(StandardRoot(f"{label}:{suffix}", exact(re_i), exact(im_i), d_eff,
                                       pure_im, None, label, negation))
            parts.append((re_i, im_i))
            # the declared signature is that of the weight +t; for skew s the
            # form i*s changes sign on its negation
            sigs.append((i, row.eta_epsilon == -1 and im[0] < 0) if pure_im else None)
    # real and imaginary parts of the weights still generate c* after the
    # trace relation cuts it down
    if relations and k:
        if len(linalg.int_echelon([v for part in parts for v in part])[1]) != k:
            raise AssertionError("standard weights fail to span the dual of c")
    return k, exact, spaces, parts, tuple(sigs)


def _adjoint_weights(row: FamilyParams, spaces: Sequence[StandardRoot],
                     parts: Sequence[Tuple[IntVec, IntVec]], k: int,
                     exact: Callable[[IntVec], Vec]):
    """The weights of c on g: Hom(I_a, I_b) for each ordered pair of distinct
    weight spaces. Where the form pairs I_a with I_-a, Hom(I_a, I_b) and
    Hom(I_-b, I_-a) are one space, built from the pair that comes first.
    Values are differences of the spaces' integer parts, checked as
    integers; each root is built once with its exact values. Returns
    (weight, signature rule, integer (re, im)) triples sorted by label; the
    rule is ("wedge", a, None), ("tau", a, None) or ("product", a, b) over
    the spaces, or None where the weight is not pure imaginary."""
    at = {r.label: i for i, r in enumerate(spaces)}
    out = []
    # the zero value is g0's: adjoint weights are nonzero and pairwise distinct
    seen = {((0,) * k, (0,) * k)}
    # a value's negation is the reverse pair's value, which can only be
    # missing where that pair was skipped for its mirror: check those values
    paired_values = []
    for i, ra in enumerate(spaces):
        re_a, im_a = parts[i]
        for j, rb in enumerate(spaces):
            paired = ra.negation is not None and rb.negation is not None
            if i == j or (paired and (at[rb.negation], at[ra.negation]) < (i, j)):
                continue
            re_b, im_b = parts[j]
            re, im = tuple(map(int.__sub__, re_b, re_a)), tuple(map(int.__sub__, im_b, im_a))
            pure_im = not any(re)
            label, source = f"{ra.label}->{rb.label}", ("hom", ra.label, rb.label)
            dim, rule = ra.dim * rb.dim, ("product", i, j) if pure_im else None
            if rb.label == ra.negation:
                # maps I_a -> I_-a are (-epsilon)-symmetric forms on I_a
                dim = wedge_dim(ra.dim, row.epsilon)
                if dim == 0:
                    continue
                label, source = f"wedge({ra.label})", ("wedge", ra.label)
                rule = ("wedge", i, None) if pure_im else None
            elif row.eta is not None and ra.block_label == rb.block_label \
                    and (re_b, im_b) == (re_a, _neg(im_a)):
                # tau carries I_a onto I_b, the conjugate weight's space
                rule = ("tau", i, None)
            before = len(seen)
            seen.add((re, im))
            if len(seen) == before:
                raise AssertionError("adjoint weights are not nonzero and pairwise distinct")
            if paired:
                paired_values.append((re, im))
            out.append((AdjointRoot(label, exact(re), exact(im), dim, pure_im, None, source),
                        rule, (re, im)))
    for re, im in paired_values:
        if (_neg(re), _neg(im)) not in seen:
            raise AssertionError("adjoint weights are not closed under negation")
    out.sort(key=lambda triple: triple[0].label)
    return out


def weight_geometry(family: Family, skeleton: Skeleton) -> WeightGeometry:
    """Everything in the root system of blocks with this skeleton, in a group
    of the family, except the signatures."""
    row = groups.FAMILIES[family]
    k, exact, spaces, parts, space_sigs = _standard_weights(row, skeleton)
    adjoint = _adjoint_weights(row, spaces, parts, k, exact)
    zero, standard = (spaces[0], spaces[1:]) if spaces and spaces[0].is_zero else (None, spaces)
    if row.is_sl_like:
        dim_g0 = sum(r.dim * r.dim for r in standard) - 1
    else:
        # gl(I_l) once for each pair of weights +-l, and the forms on I_0
        d0 = zero.dim if zero is not None else 0
        dim_g0 = wedge_dim(d0, row.epsilon) + sum(r.dim ** 2 for r in standard) // 2
    return WeightGeometry(k, tuple(standard), zero, tuple(r for r, _, _ in adjoint), dim_g0,
                          space_sigs, tuple(rule for _, rule, _ in adjoint),
                          tuple(part for _, _, part in adjoint))


def _adjoint_sig(spec: GroupSpec, dim: int, rule, spaces: Sequence[StandardRoot]
                 ) -> Signature:
    kind, a, b = rule
    ra = spaces[a]
    if kind == "wedge":
        return _wedge_sig(ra.sig, spec.epsilon, -spec.eta_epsilon)
    if kind == "tau":
        # the symmetric versus alternating split gives signature eta * d
        s = spec.eta * ra.dim
        return Signature((dim + s) // 2, (dim - s) // 2)
    rb = spaces[b]
    if ra.sig is None or rb.sig is None:
        raise AssertionError("pure imaginary difference needs signed weights")
    return _product_sig(ra.sig, rb.sig)


def _signed(spec: GroupSpec, blocks: List[Block], geo: WeightGeometry) -> RootSystem:
    """The geometry with its signatures, the only place they are computed:
    each pure imaginary weight space carries its block's declared signature,
    and each adjoint weight's follows from its rule."""
    spaces = []
    for r, rule in zip(_spaces(geo.zero, geo.standard), geo.space_sigs):
        if rule is not None:
            i, flipped = rule
            sig = blocks[i].sig
            r = type(r)(r.label, r.re, r.im, r.dim, r.pure_imaginary,
                        sig.flip() if flipped else sig, r.block_label, r.negation)
        spaces.append(r)
    adjoint = [r if rule is None else
               type(r)(r.label, r.re, r.im, r.dim, r.pure_imaginary,
                       _adjoint_sig(spec, r.dim, rule, spaces), r.source)
               for r, rule in zip(geo.adjoint, geo.adjoint_sigs)]
    zero, standard = (None, spaces) if geo.zero is None else (spaces[0], spaces[1:])
    return RootSystem(spec, blocks, geo.dim_c, standard, zero, adjoint, geo.dim_g0,
                      geo.adjoint_parts)


def root_system(spec: GroupSpec, blocks: Sequence[Block],
                geometry: Callable[[Family, Skeleton], WeightGeometry] = weight_geometry
                ) -> RootSystem:
    """Full decomposition: standard weights, adjoint weights, zero-space dim.

    The blocks are validated, signatures included, on every call; `geometry`
    supplies the signature-free part, by default built afresh, and a sweep
    passes its own memo of `weight_geometry`."""
    blocks = normalize_blocks(spec, blocks)
    sys = _signed(spec, blocks, geometry(spec.family, skeleton(blocks)))
    total, expect = sys.dim_audit()
    if total != expect:
        raise AssertionError(f"dimension audit failed: {total} != {expect}")
    return sys
