import functools
from fractions import Fraction
from random import Random

import pytest

from liebalance import blocks, groups, linalg, roots
from liebalance.blocks import ScenarioError
from liebalance.exact import Signature
from liebalance.groups import Family
from liebalance.randomgen import random_scenario
from liebalance.roots import AdjointRoot, root_system, wedge_dim
from liebalance.sweep import _configurations


def _relation_sum(sys):
    k = sys.dim_c
    acc_re = [Fraction(0)] * k
    acc_im = [Fraction(0)] * k
    for r in sys.standard:
        for c in range(k):
            acc_re[c] += r.dim * r.re[c]
            acc_im[c] += r.dim * r.im[c]
    return acc_re, acc_im


def test_sl_c_three_classes():
    sys = root_system(groups.sl_c(6), [blocks.cls(1), blocks.cls(2), blocks.cls(3)])
    assert sys.dim_c == 4  # complex dimension 2, real coordinates
    assert len(sys.standard) == 3
    re, im = _relation_sum(sys)
    assert all(x == 0 for x in re) and all(x == 0 for x in im)
    assert len(sys.adjoint) == 6
    values = {(r.re, r.im) for r in sys.adjoint}
    assert len(values) == 6
    assert not any(r.pure_imaginary for r in sys.adjoint)


def test_so_c_dual_pair_no_zero():
    sys = root_system(groups.so_c(4), [blocks.dual_pair(1, 2)])
    assert sys.dim_c == 2
    labels = {r.label for r in sys.standard}
    assert labels == {"b0:+z", "b0:-z"}
    assert sys.zero is None


def test_double_weight_exclusion_orthogonal():
    # one-dimensional weight space and a symmetric form: no doubled weight
    sys = root_system(groups.so_c(4), [blocks.dual_pair(1, 1), blocks.zero_block(2)])
    assert all(r.source[0] != "wedge" for r in sys.adjoint)
    # skew form: the doubled weight exists with one-dimensional space
    sys = root_system(groups.sp_c(2), [blocks.dual_pair(1, 1)])
    wedges = [r for r in sys.adjoint if r.source[0] == "wedge"]
    assert len(wedges) == 2 and all(r.dim == 1 for r in wedges)
    # symmetric form, two-dimensional space: alternating part has dim 1
    sys = root_system(groups.so_c(8), [blocks.dual_pair(2, 1), blocks.zero_block(4)])
    wedges = {r.label: r.dim for r in sys.adjoint if r.source[0] == "wedge"}
    assert wedges == {"wedge(b0:+z)": 1, "wedge(b0:-z)": 1}


def test_su_single_self_block_weight_is_imaginary():
    sys = root_system(groups.su(1, 1),
                      [blocks.sesq_self(1, (1, 0), (1, 0), label="a"),
                       blocks.sesq_self(1, (0, 1), (1, 0), label="b")])
    assert all(r.pure_imaginary for r in sys.standard)
    assert sys.dim_c == 1


def test_su_signature_product_rule():
    # definite (2,0) against vanishing (1,1): signature value 0 on dim 4
    sys = root_system(groups.su(3, 1), [
        blocks.sesq_self(2, (2, 0), (1, 0), label="a"),
        blocks.sesq_self(2, (1, 1), (1, 0), label="b"),
    ])
    r = next(x for x in sys.adjoint if x.source == ("hom", "a:il", "b:il"))
    assert r.dim == 4 and r.sig.value == 0 and r.sig.dim == 4


def test_sl_r_conjugate_pair_signature():
    sys = root_system(groups.sl_r(6), [blocks.conj_pair(3, 1)])
    pure = [r for r in sys.adjoint if r.pure_imaginary]
    assert len(pure) == 2
    for r in pure:
        assert r.dim == 9 and abs(r.sig.value) == 3


def test_sl_h_flips_the_sign():
    sys_r = root_system(groups.sl_r(4), [blocks.conj_pair(2, 1)])
    sys_h = root_system(groups.sl_h(2), [blocks.conj_pair(2, 1)])
    sig_r = next(r.sig for r in sys_r.adjoint if r.pure_imaginary)
    sig_h = next(r.sig for r in sys_h.adjoint if r.pure_imaginary)
    assert sig_r.value == 2 and sig_h.value == -2


def test_signbil_double_weight_example():
    # vanishing signature on dim 4, alternating part: (s^2 - n)/2 = -2
    sys = root_system(groups.so(4, 4), [blocks.imag_pair(4, 1, (2, 2))])
    w = next(r for r in sys.adjoint if r.source[0] == "wedge")
    assert w.dim == 6
    assert abs(w.sig.value) == 2


def test_weight_space_symmetry_and_negation_closure():
    sys = root_system(groups.so(5, 1),
                      [blocks.imag_pair(2, 1, (2, 0)), blocks.zero_block(2, (1, 1))])
    values = {(r.re, r.im): r for r in sys.adjoint}
    for (re, im), r in values.items():
        neg = (tuple(-x for x in re), tuple(-x for x in im))
        assert neg in values
        assert values[neg].dim == r.dim
        assert values[neg].sig == r.sig  # opposite weights carry equal signatures


def test_dimension_audits_match_closed_forms():
    cases = [
        (groups.sl_r(5), [blocks.conj_pair(1, 2), blocks.real_cls(1, 1)], 24),
        (groups.su(2, 2), [blocks.sesq_self(2, (1, 1), (2, 0))], 15),
        (groups.so(3, 3), [blocks.imag_pair(1, 1, (1, 0)), blocks.split_pair(1, 1),
                           blocks.zero_block(2, (0, 2))], 15),
        (groups.sp_r(6), [blocks.imag_pair(2, 1, (1, 1)), blocks.zero_block(2, (1, 1))], 21),
        (groups.so_star(8), [blocks.imag_pair(2, 1, (1, 1)), blocks.zero_block(4, (2, 2))], 28),
        (groups.sp(1, 1), [blocks.imag_pair(1, 1, (1, 0)), blocks.imag_pair(1, 1, (0, 1))], 10),
        (groups.sl_c(4), [blocks.cls(2, 2)], 15),
    ]
    for spec, bl, dim_g in cases:
        sys = root_system(spec, bl)
        total, expect = sys.dim_audit()
        assert total == expect == dim_g


def test_quaternionic_evenness_enforced():
    with pytest.raises(ScenarioError):
        root_system(groups.sl_h(2), [blocks.real_cls(1, 1), blocks.real_cls(3, 1)])
    with pytest.raises(ScenarioError):
        root_system(groups.so_star(6), [blocks.split_pair(1, 1),
                                        blocks.zero_block(4, (2, 2))])


def test_dimension_mismatch_rejected():
    with pytest.raises(ScenarioError):
        root_system(groups.sl_c(5), [blocks.cls(2, 1)])


def test_skew_zero_blocks_must_vanish():
    with pytest.raises(ScenarioError):
        root_system(groups.sp_r(4), [blocks.imag_pair(1, 1, (1, 0)),
                                     blocks.zero_block(2, (2, 0))])


def test_su_ambient_signature_must_match():
    with pytest.raises(ScenarioError):
        root_system(groups.su(1, 2), [blocks.sesq_self(1, (1, 0), (1, 0)),
                                      blocks.sesq_self(2, (2, 0), (1, 0))])


def test_quad_conjugate_weights_are_imaginary_with_eta_signature():
    sys = root_system(groups.so(2, 2), [blocks.quad_pair(1, 1)])
    conj_roots = [r for r in sys.adjoint if r.pure_imaginary]
    assert len(conj_roots) == 2
    assert all(r.sig.value == 1 for r in conj_roots)
    sys = root_system(groups.sp(1, 1), [blocks.quad_pair(1, 1)])
    conj_roots = [r for r in sys.adjoint if r.pure_imaginary]
    assert all(r.sig.value == -1 for r in conj_roots)


# -- reference: the adjoint weights as two family-specific loops ------------
#
# The package builds the adjoint weights in one enumeration over ordered
# pairs of weight spaces, with every sign read from the group's eta and
# epsilon. The loops below are the earlier construction, one for the special
# linear families and one for the orthogonal-like ones, with three
# per-family sign tables; the new enumeration must reproduce them exactly.

REF_SL_CONJ_PAIR_SIGN = {Family.SL_R: +1, Family.SL_H: -1}
REF_DIFF_SIGN = {Family.SU: -1, Family.SO: -1, Family.SP: -1, Family.SP_R: -1,
                 Family.SO_STAR: -1}
REF_DOUBLE_SIGN = {Family.SO: -1, Family.SP_R: +1, Family.SO_STAR: +1, Family.SP: -1}


def _ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _ref_neg(v):
    return tuple(-x for x in v)


def _ref_product_sig(s1, s2, sign):
    out = Signature(s1.pos * s2.pos + s1.neg * s2.neg, s1.pos * s2.neg + s1.neg * s2.pos)
    return out if sign > 0 else out.flip()


def _ref_wedge_sig(s, epsilon, sign):
    p, n = s.pos, s.neg
    if epsilon == +1:
        out = Signature(p * (p - 1) // 2 + n * (n - 1) // 2, p * n)
    else:
        out = Signature(p * (p + 1) // 2 + n * (n + 1) // 2, p * n)
    return out if sign > 0 else out.flip()


def _ref_sl_adjoint(spec, sys):
    out, seen_values = [], set()
    for ra in sys.standard:
        for rb in sys.standard:
            if ra.label == rb.label:
                continue
            re, im = _ref_sub(rb.re, ra.re), _ref_sub(rb.im, ra.im)
            if not any(re) and not any(im):
                raise AssertionError("distinct weights produced an identical difference")
            pure_im = not any(re)
            sig = _ref_sl_pair_signature(spec, ra, rb) if pure_im else None
            if (re, im) in seen_values:
                raise AssertionError("weight differences are not pairwise distinct")
            seen_values.add((re, im))
            out.append(AdjointRoot(f"{ra.label}->{rb.label}", re, im, ra.dim * rb.dim,
                                   pure_im, sig, ("hom", ra.label, rb.label)))
    out.sort(key=lambda r: r.label)
    return out


def _ref_sl_pair_signature(spec, ra, rb):
    fam = spec.family
    if fam == Family.SU:
        if ra.sig is None or rb.sig is None:
            raise AssertionError("pure imaginary difference needs signed weights")
        return _ref_product_sig(ra.sig, rb.sig, REF_DIFF_SIGN[fam])
    if fam in (Family.SL_R, Family.SL_H):
        if ra.block_label != rb.block_label or ra.dim != rb.dim:
            raise AssertionError("pure imaginary difference outside a conjugate pair")
        d = ra.dim
        s = REF_SL_CONJ_PAIR_SIGN[fam] * d
        return Signature((d * d + s) // 2, (d * d - s) // 2)
    raise AssertionError("complex family has no pure imaginary adjoint weight")


def _ref_orth_adjoint(spec, sys):
    eps, fam = spec.epsilon, spec.family
    values = {}

    def add(root):
        prev = values.get((root.re, root.im))
        if prev is None:
            values[(root.re, root.im)] = root
        elif (prev.dim, prev.pure_imaginary, prev.sig) != (root.dim, root.pure_imaginary,
                                                           root.sig):
            raise AssertionError("inconsistent duplicate weight value")

    for ra in sys.standard:
        for rb in sys.standard:
            if ra.label == rb.label:
                continue
            re, im = _ref_sub(rb.re, ra.re), _ref_sub(rb.im, ra.im)
            if rb.label == ra.negation:
                wd = wedge_dim(ra.dim, eps)
                if wd == 0:
                    continue
                pure_im = ra.pure_imaginary
                sig = _ref_wedge_sig(ra.sig, eps, REF_DOUBLE_SIGN[fam]) if pure_im else None
                add(AdjointRoot(f"wedge({ra.label})", re, im, wd, pure_im, sig,
                                ("wedge", ra.label)))
                continue
            if spec.eta is not None and ra.block_label == rb.block_label \
                    and (rb.re, rb.im) == (ra.re, _ref_neg(ra.im)):
                d = ra.dim
                s = spec.eta * d
                sig = Signature((d * d + s) // 2, (d * d - s) // 2)
                add(AdjointRoot(f"{ra.label}->{rb.label}", re, im, d * d, True, sig,
                                ("hom", ra.label, rb.label)))
                continue
            pure_im = ra.pure_imaginary and rb.pure_imaginary
            sig = _ref_product_sig(ra.sig, rb.sig, REF_DIFF_SIGN[fam]) if pure_im else None
            add(AdjointRoot(f"{ra.label}->{rb.label}", re, im, ra.dim * rb.dim, pure_im,
                            sig, ("hom", ra.label, rb.label)))
    if sys.zero is not None:
        z = sys.zero
        for ra in sys.standard:
            re, im = _ref_sub(ra.re, z.re), _ref_sub(ra.im, z.im)
            pure_im = ra.pure_imaginary
            sig = None
            if pure_im and fam not in (Family.SO_C, Family.SP_C):
                sig = _ref_product_sig(z.sig, ra.sig, REF_DIFF_SIGN[fam])
            add(AdjointRoot(f"0->{ra.label}", re, im, z.dim * ra.dim, pure_im, sig,
                            ("hom", "0", ra.label)))
    out = sorted(values.values(), key=lambda r: r.label)
    keys = {(r.re, r.im) for r in out}
    for r in out:
        if (_ref_neg(r.re), _ref_neg(r.im)) not in keys:
            raise AssertionError("adjoint weights are not closed under negation")
    return out


def _fields(r):
    return (r.label, r.re, r.im, r.dim, r.pure_imaginary, r.sig, r.source)


def test_adjoint_enumeration_matches_the_family_loops(monkeypatch):
    built = []

    def counted(*args):
        built.append(AdjointRoot(*args))
        return built[-1]

    for family in Family:
        for s in range(200):
            spec, bl = random_scenario(family, Random(s), cap=12)
            sys = root_system(spec, bl)
            ref = (_ref_sl_adjoint if spec.is_sl_like else _ref_orth_adjoint)(spec, sys)
            assert [_fields(r) for r in sys.adjoint] == [_fields(r) for r in ref], \
                (family, s)
            # the geometry builds every space once: no constructed weight is
            # thrown away (signing the system afterwards is not counted)
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(roots, "AdjointRoot", counted)
                geometry = roots.weight_geometry(spec.family, roots.skeleton(sys.blocks))
            assert len(built) == len(geometry.adjoint), (family, s)


def _adjoint_parts_rank(sys):
    """Exact rank of the real and imaginary parts of the adjoint weights: the
    span test `classify` once ran per system, kept here as the reference for
    reading it from the group."""
    parts = dict.fromkeys(part for r in sys.adjoint for part in (r.re, r.im))
    rows = [list(part) for part in parts if any(part)]
    return linalg.frac_rank(rows) if rows else 0


# the seven sweep families, at bounds where every configuration is cheap
SMALL_SWEEPS = [(Family.SU, 5), (Family.SO, 6), (Family.SP_R, 6), (Family.SO_STAR, 8),
                (Family.SL_R, 6), (Family.SL_H, 6), (Family.SP, 6)]


def _systems_for_the_span_test():
    for family, bound in SMALL_SWEEPS:
        for bl in _configurations(family, bound):
            yield blocks.spec_for(family, bl), bl
    for family in Family:
        for s in range(30):
            yield random_scenario(family, Random(s), cap=8)
    yield groups.so_c(2), [blocks.dual_pair(1)]
    yield groups.so_c(2), [blocks.zero_block(2)]


def test_adjoint_weights_span_exactly_when_semisimple_or_no_center():
    """A nonzero X in c that every adjoint weight kills acts by 0 on g, so it
    is central: the parts span c* exactly when c = 0 or g is semisimple."""
    failing = []
    for spec, bl in _systems_for_the_span_test():
        sys = root_system(spec, bl)
        spans = _adjoint_parts_rank(sys) == sys.dim_c
        assert spans == (sys.dim_c == 0 or spec.is_semisimple), (spec.describe(), bl)
        if not spans:
            failing.append(spec.describe())
    # the test reaches the one family where the parts fail to span
    assert failing and set(failing) == {"SO(2,C)"}


# -- the weight geometry: built once per skeleton, signed per system ---------

# the bench `sweep` plan
BENCH_PLAN = [(Family.SU, 6), (Family.SO, 7), (Family.SP_R, 8), (Family.SO_STAR, 10),
              (Family.SL_R, 7), (Family.SL_H, 8), (Family.SP, 8)]


def test_root_systems_through_one_geometry_memo_equal_fresh_ones():
    memo = functools.lru_cache(maxsize=None)(roots.weight_geometry)
    configurations = 0
    for family, bound in BENCH_PLAN:
        for bl in _configurations(family, bound):
            spec = blocks.spec_for(family, bl)
            assert vars(root_system(spec, bl, memo)) == vars(root_system(spec, bl)), \
                (spec.describe(), bl)
            configurations += 1
    # 1441 configurations on 443 skeletons
    assert (configurations, memo.cache_info().misses) == (1441, 443)


def _geometries_built(*systems):
    """How many geometries one memo builds for these (spec, blocks), after
    checking that each signed system equals a fresh one."""
    memo = functools.lru_cache(maxsize=None)(roots.weight_geometry)
    for spec, bl in systems:
        assert vars(root_system(spec, bl, memo)) == vars(root_system(spec, bl))
    return memo.cache_info().misses


def test_configurations_differing_only_in_signatures_share_a_geometry():
    assert _geometries_built(
        (groups.su(2, 1), [blocks.sesq_self(2, (1, 1), (1, 0), "a"),
                           blocks.sesq_self(1, (1, 0), (1, 0), "b")]),
        (groups.su(1, 2), [blocks.sesq_self(2, (1, 1), (1, 0), "a"),
                           blocks.sesq_self(1, (0, 1), (1, 0), "b")])) == 1
    assert _geometries_built(
        (groups.so(4, 0), [blocks.imag_pair(1, 2, (2, 0))]),
        (groups.so(2, 2), [blocks.imag_pair(1, 2, (1, 1))]),
        (groups.so(0, 4), [blocks.imag_pair(1, 2, (0, 2))])) == 1
    # the signatures differ, and so do the signed systems
    a = root_system(groups.so(4, 0), [blocks.imag_pair(1, 2, (2, 0))])
    b = root_system(groups.so(2, 2), [blocks.imag_pair(1, 2, (1, 1))])
    assert [r.sig for r in a.adjoint] != [r.sig for r in b.adjoint]


def test_dims_multiplicities_and_labels_are_part_of_the_key():
    # the same d_eff = 2 from (dim, mult) = (2, 1) and (1, 2)
    assert _geometries_built(
        (groups.so(2, 2), [blocks.imag_pair(2, 1, (1, 1))]),
        (groups.so(2, 2), [blocks.imag_pair(1, 2, (1, 1))])) == 2
    assert _geometries_built(
        (groups.sl_r(4), [blocks.conj_pair(2, 1, "a")]),
        (groups.sl_r(4), [blocks.conj_pair(2, 1, "b")])) == 2


# -- reference: the weight geometry in Fraction arithmetic -------------------
#
# The package computes every weight as an integer vector over one common
# denominator and builds the exact vectors once. The functions below are the
# earlier construction, every coordinate a Fraction from the start; the
# integer one must give the same roots, value for value.

def _ref_zero_vec(k):
    return tuple(Fraction(0) for _ in range(k))


def _ref_combine(coefs, coords, k):
    out = _ref_zero_vec(k)
    for c, v in zip(coefs, coords):
        if c:
            out = tuple(o + c * x for o, x in zip(out, v))
    return out


def _ref_standard_weights(row, skeleton):
    weighted = [(i, kind, dim * mult, label)
                for i, (kind, dim, mult, label) in enumerate(skeleton) if kind != "zero"]
    spans, raw = [], 0
    for _i, kind, _d, _label in weighted:
        size = len(blocks.WEIGHTS[kind][0][1])
        spans.append(range(raw, raw + size))
        raw += size
    relations = []
    if row.is_sl_like:
        trace = [[Fraction(0)] * raw, [Fraction(0)] * raw]
        for (_i, kind, d_eff, _label), span in zip(weighted, spans):
            for _suffix, re, im in blocks.WEIGHTS[kind]:
                for j, cr, ci in zip(span, re, im):
                    trace[0][j] += d_eff * cr
                    trace[1][j] += d_eff * ci
        relations = [r for r in trace if any(r)]
    basis = linalg.frac_nullspace(relations, raw)
    k = len(basis)
    coords = [tuple(basis[c][i] for c in range(k)) for i in range(raw)]

    out, sigs = [], []
    for (i, kind, d_eff, label), span in zip(weighted, spans):
        table = blocks.WEIGHTS[kind]
        own = [coords[j] for j in span]
        for suffix, re, im in table:
            negation = next((f"{label}:{s}" for s, re2, im2 in table
                             if re2 == _ref_neg(re) and im2 == _ref_neg(im)), None)
            pure_im = not any(re)
            out.append(roots.StandardRoot(f"{label}:{suffix}", _ref_combine(re, own, k),
                                          _ref_combine(im, own, k), d_eff, pure_im, None,
                                          label, negation))
            sigs.append((i, row.eta_epsilon == -1 and im[0] < 0) if pure_im else None)
    if relations and k:
        vecs = [list(r.re) for r in out] + [list(r.im) for r in out]
        assert linalg.frac_rank(vecs) == k
    for i, (kind, dim, _mult, label) in enumerate(skeleton):
        if kind == "zero":
            zero = roots.StandardRoot("0", _ref_zero_vec(k), _ref_zero_vec(k), dim, True,
                                      None, label, negation="0")
            return k, zero, out, ((i, False), *sigs)
    return k, None, out, tuple(sigs)


def _ref_adjoint_weights(row, spaces, k):
    at = {r.label: i for i, r in enumerate(spaces)}
    out = []
    seen = {(_ref_zero_vec(k), _ref_zero_vec(k))}
    paired_values = []
    for i, ra in enumerate(spaces):
        for j, rb in enumerate(spaces):
            paired = ra.negation is not None and rb.negation is not None
            if i == j or (paired and (at[rb.negation], at[ra.negation]) < (i, j)):
                continue
            re, im = _ref_sub(rb.re, ra.re), _ref_sub(rb.im, ra.im)
            pure_im = not any(re)
            label, source = f"{ra.label}->{rb.label}", ("hom", ra.label, rb.label)
            dim, rule = ra.dim * rb.dim, ("product", i, j) if pure_im else None
            if rb.label == ra.negation:
                dim = wedge_dim(ra.dim, row.epsilon)
                if dim == 0:
                    continue
                label, source = f"wedge({ra.label})", ("wedge", ra.label)
                rule = ("wedge", i, None) if pure_im else None
            elif row.eta is not None and ra.block_label == rb.block_label \
                    and (rb.re, rb.im) == (ra.re, _ref_neg(ra.im)):
                rule = ("tau", i, None)
            assert (re, im) not in seen
            seen.add((re, im))
            if paired:
                paired_values.append((re, im))
            out.append((AdjointRoot(label, re, im, dim, pure_im, None, source), rule))
    for re, im in paired_values:
        assert (_ref_neg(re), _ref_neg(im)) in seen
    out.sort(key=lambda pair: pair[0].label)
    return out


def _scale(geo):
    """The one positive rational c with c * exact == integer part for every
    adjoint weight of the geometry, or None when there is no such c."""
    ratios = {Fraction(x) / y
              for r, part in zip(geo.adjoint, geo.adjoint_parts)
              for exact, ints in zip((r.re, r.im), part)
              for y, x in zip(exact, ints) if y}
    zeros_match = all((y == 0) == (x == 0)
                      for r, part in zip(geo.adjoint, geo.adjoint_parts)
                      for exact, ints in zip((r.re, r.im), part)
                      for y, x in zip(exact, ints))
    return ratios.pop() if len(ratios) == 1 and zeros_match and min(ratios) > 0 else None


def _assert_matches_the_fraction_geometry(family, skeleton):
    row = groups.FAMILIES[family]
    k, zero, standard, space_sigs = _ref_standard_weights(row, skeleton)
    adjoint = _ref_adjoint_weights(row, roots._spaces(zero, standard), k)
    geo = roots.weight_geometry(family, skeleton)
    # dataclass equality: labels, re, im, dims, sources, negations, kinds
    assert (geo.dim_c, geo.zero, list(geo.standard), geo.space_sigs) == \
        (k, zero, standard, space_sigs), (family, skeleton)
    assert list(zip(geo.adjoint, geo.adjoint_sigs)) == adjoint, (family, skeleton)
    assert all(type(x) is Fraction for r in (*geo.standard, *geo.adjoint)
               for x in (*r.re, *r.im))
    scale = _scale(geo) if geo.adjoint else Fraction(1)
    assert scale is not None and scale.denominator == 1, (family, skeleton)
    return scale


def _swept_skeletons(bound):
    seen = set()
    for family, _ in SMALL_SWEEPS:
        for bl in _configurations(family, bound):
            spec = blocks.spec_for(family, bl)
            key = (family, roots.skeleton(blocks.normalize_blocks(spec, bl)))
            if key not in seen:
                seen.add(key)
                yield key


def test_integer_geometry_equals_the_fraction_one_on_swept_skeletons():
    scales = [_assert_matches_the_fraction_geometry(family, skeleton)
              for family, skeleton in _swept_skeletons(8)]
    # every skeleton of the seven swept families at bound 8
    assert len(scales) == 587
    # the trace relation's basis has denominators above 1
    assert max(scales) > 1


def test_integer_geometry_equals_the_fraction_one_on_random_draws():
    scales = {}
    for family in Family:
        for s in range(30):
            spec, bl = random_scenario(family, Random(s), cap=12)
            skeleton = roots.skeleton(blocks.normalize_blocks(spec, bl))
            scale = _assert_matches_the_fraction_geometry(family, skeleton)
            scales[family] = max(scales.get(family, 0), scale)
    assert {f for f, c in scales.items() if c > 1} <= \
        {f for f in Family if groups.FAMILIES[f].is_sl_like}
    assert scales[Family.SL_C] > 1
