import random

import numpy as np
import pytest

from liebalance import blocks, groups, linalg
from liebalance.exact import is_hermitian, signature_of
from liebalance.groups import Family
from liebalance.modelbuild import adjoint_space_basis, build_model
from liebalance.oracle import (OracleError, brute_force_roots, oracle_check,
                               synthesize_model)
from liebalance.randomgen import ALL_FAMILIES, random_scenario
from liebalance.roots import killing_form_matrix, root_system


def test_synthesize_small_examples():
    # so(2,C) is abelian of dimension 1: the algebra is its own center
    sys = root_system(groups.so_c(2), [blocks.dual_pair(1, 1)])
    fm = synthesize_model(sys, cap=12)
    rep = brute_force_roots(sys, fm)
    assert rep.dim_g == 1 and sys.dim_c == 2 and not rep.adjoint
    # sp(2,C) = sl(2,C)
    sys = root_system(groups.sp_c(2), [blocks.dual_pair(1, 1)])
    fm = synthesize_model(sys, cap=12)
    rep = brute_force_roots(sys, fm)
    assert rep.dim_g == 3
    # the SU(1,1) model carries the split diagonal form (entries 1, -1, in
    # canonical block order)
    fm = synthesize_model(root_system(groups.su(1, 1),
                                      [blocks.sesq_self(1, (1, 0), (1, 0), label="a"),
                                       blocks.sesq_self(1, (0, 1), (1, 0), label="b")]))
    assert np.allclose(fm.s, np.diag(np.diag(fm.s)))
    assert sorted(np.real(np.diag(fm.s))) == [-1.0, 1.0]


def test_cap_enforced():
    with pytest.raises(OracleError):
        synthesize_model(root_system(groups.sl_c(13), [blocks.cls(13, 1)]), cap=12)


def test_compact_model_definite_weight_spaces():
    sys = root_system(groups.so(4, 0),
                      [blocks.imag_pair(1, 1, (1, 0), label="a"),
                       blocks.imag_pair(1, 1, (1, 0), label="b")])
    fm = synthesize_model(sys)
    rep = brute_force_roots(sys, fm)
    for w in rep.adjoint:
        assert w.signature is not None
        pos, neg, null = w.signature
        assert null == 0 and (pos == 0 or neg == 0)


def test_dims_always_sum():
    rng = random.Random(4)
    for fam in ALL_FAMILIES:
        spec, bl = random_scenario(fam, rng)
        sys = root_system(spec, bl)
        fm = synthesize_model(sys)
        rep = brute_force_roots(sys, fm, seed=11)
        assert rep.zero_dim + sum(w.dim for w in rep.adjoint) == rep.dim_g
        assert rep.dim_g == spec.dim_complexified


def test_sigma_equivariance_reported():
    sys = root_system(groups.sl_r(4), [blocks.conj_pair(2, 1)])
    fm = synthesize_model(sys)
    rep = brute_force_roots(sys, fm)
    assert rep.sigma_equivariant


def test_oracle_agrees_across_families():
    rng = random.Random(99)
    for fam in ALL_FAMILIES:
        for _ in range(3):
            spec, bl = random_scenario(fam, rng)
            assert oracle_check(spec, bl, seed=rng.randint(0, 10 ** 6)) == []


def test_exact_gram_matches_symbolic_signature():
    cases = [
        (groups.sl_r(4), [blocks.conj_pair(2, 1)]),
        (groups.sl_h(2), [blocks.conj_pair(2, 1)]),
        (groups.su(2, 1), [blocks.sesq_self(1, (1, 0), (1, 0), label="a"),
                           blocks.sesq_self(1, (1, 0), (1, 0), label="b"),
                           blocks.sesq_self(1, (0, 1), (1, 0), label="c")]),
        (groups.so(2, 2), [blocks.imag_pair(1, 1, (1, 0), label="a"),
                           blocks.imag_pair(1, 1, (0, 1), label="b")]),
        (groups.so_star(4), [blocks.imag_pair(1, 1, (1, 0), label="a"),
                             blocks.imag_pair(1, 1, (1, 0), label="b")]),
        (groups.sp_r(8), [blocks.imag_pair(2, 1, (2, 0)),
                          blocks.imag_pair(1, 1, (1, 0)),
                          blocks.zero_block(2, (1, 1))]),
        (groups.sp(1, 1), [blocks.imag_pair(1, 1, (1, 0)),
                           blocks.imag_pair(1, 1, (0, 1))]),
    ]
    for spec, bl in cases:
        sys = root_system(spec, bl)
        model = build_model(spec, sys)
        for root in sys.adjoint:
            if not root.pure_imaginary:
                continue
            basis = adjoint_space_basis(model, root)
            gram = killing_form_matrix(basis, model.sigma)
            assert is_hermitian(gram)
            got = signature_of(gram)
            assert (got.pos, got.neg, got.null) == (root.sig.pos, root.sig.neg, 0), \
                (spec.describe(), root.label)


def test_sl_r_dim2_hom_block_killing_matrix():
    """Explicit 4x4 Gram on maps between a conjugate pair of 2-dimensional
    weight spaces: symmetric part positive, alternating part negative."""
    spec = groups.sl_r(4)
    sys = root_system(spec, [blocks.conj_pair(2, 1)])
    model = build_model(spec, sys)
    root = next(r for r in sys.adjoint if r.pure_imaginary)
    basis = adjoint_space_basis(model, root)
    gram = killing_form_matrix(basis, model.sigma)
    assert len(gram) == 4
    sig = signature_of(gram)
    assert abs(sig.value) == 2 and sig.dim == 4 and sig.null == 0


def test_model_realizes_declared_weight_signatures():
    rng = random.Random(12)
    for fam in ALL_FAMILIES:
        spec, bl = random_scenario(fam, rng)
        sys = root_system(spec, bl)
        build_model(spec, sys)  # raises if any declared signature is off


def test_adjoint_space_basis_is_form_skew_across_fresh_models():
    """Every basis element X satisfies X^T B + B X = 0, for models built one
    after another so that freed forms are replaced by new ones."""
    rng = random.Random(21)
    families = [Family.SO, Family.SP_R, Family.SO_STAR, Family.SP,
                Family.SO_C, Family.SP_C]
    for k in range(300):
        spec, bl = random_scenario(families[k % len(families)], rng, cap=6)
        sys = root_system(spec, bl)
        model = build_model(spec, sys)
        for root in sys.adjoint:
            for x in adjoint_space_basis(model, root):
                lhs = linalg.matmul(linalg.transpose(x), model.B)
                rhs = linalg.matmul(model.B, x)
                assert all((u + v).is_zero() for lrow, rrow in zip(lhs, rhs)
                           for u, v in zip(lrow, rrow)), (spec.describe(), root.label)
