import functools
import random
from pathlib import Path
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import assume, given

from liebalance import blocks, groups, linalg
from liebalance.exact import I, ONE, ZERO, GaussianRational as GQ, gmat, is_hermitian, signature_of
from liebalance.groups import Family
from liebalance.modelbuild import Mat, MatrixModel, build_center_basis, build_model
from liebalance.oracle import (EXACT_TOL, GRAM_TOL, SIGMA_TOL, NumericWeight, OracleError,
                               _ad_matrices, _algebra_basis, brute_force_roots,
                               compare_reports, oracle_check, synthesize_model)
from liebalance.randomgen import random_scenario
from liebalance.roots import AdjointRoot, root_system
from liebalance.report import run_scenario
from liebalance.scenario import Options, Scenario, load
from liebalance.toledo import SurfaceData
from test_linalg import square_matrices


def test_synthesize_small_examples():
    # so(2,C) is abelian of dimension 1: the algebra is its own center
    sys = root_system(groups.so_c(2), [blocks.dual_pair(1, 1)])
    fm = synthesize_model(sys, cap=12)
    rep = brute_force_roots(fm)
    assert rep.dim_g == 1 and sys.dim_c == 2 and not rep.adjoint
    # sp(2,C) = sl(2,C)
    sys = root_system(groups.sp_c(2), [blocks.dual_pair(1, 1)])
    fm = synthesize_model(sys, cap=12)
    rep = brute_force_roots(fm)
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
    rep = brute_force_roots(fm)
    for w in rep.adjoint:
        assert w.signature is not None
        pos, neg, null = w.signature
        assert null == 0 and (pos == 0 or neg == 0)


def test_dims_always_sum():
    rng = random.Random(4)
    for fam in Family:
        spec, bl = random_scenario(fam, rng)
        sys = root_system(spec, bl)
        fm = synthesize_model(sys)
        rep = brute_force_roots(fm, seed=11)
        assert rep.zero_dim + sum(w.dim for w in rep.adjoint) == rep.dim_g
        assert rep.dim_g == spec.dim_complexified


def test_sigma_equivariance_reported():
    sys = root_system(groups.sl_r(4), [blocks.conj_pair(2, 1)])
    fm = synthesize_model(sys)
    rep = brute_force_roots(fm)
    assert rep.sigma_equivariant


def test_oracle_agrees_across_families():
    rng = random.Random(99)
    for fam in Family:
        for _ in range(3):
            spec, bl = random_scenario(fam, rng)
            assert oracle_check(root_system(spec, bl), seed=rng.randint(0, 10 ** 6)) == []


def test_random_scenario_rejects_a_cap_below_the_family_minimum():
    for fam in Family:
        least = groups.FAMILIES[fam].min_dim
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"{fam.value}.*{least}"):
            random_scenario(fam, rng, cap=least - 1)
        assert rng.getstate() == state   # rejected before any draw
        spec, bl = random_scenario(fam, rng, cap=least)
        assert spec.family == fam and spec.ambient_dim == least
        root_system(spec, bl)


# --- exact weight-space bases and their Killing Grams ----------------------
# The oracle never needs an exact basis of a weight space; these build one so
# that the tests can read the weight-space signatures off the exact model.

def inverse(a):
    """Inverse of a square matrix; raises ValueError when it is singular."""
    n = len(a)
    red, pivots = linalg.rref([row + ident for row, ident in
                               zip(gmat(a), linalg.identity(n))])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


@given(square_matrices())
def test_inverse_is_a_left_inverse(b):
    assume(linalg.rank(b) == len(b))
    assert linalg.matmul(inverse(b), b) == linalg.identity(len(b))


def test_inverse_rejects_singular_matrices():
    with pytest.raises(ValueError):
        inverse([[1, 2], [2, 4]])


def adjoint_space_basis(model: MatrixModel, root: AdjointRoot) -> List[Mat]:
    """Exact basis of one adjoint weight space inside the ambient algebra."""
    n = model.system.spec.ambient_dim
    binv = None if model.B is None else inverse(model.B)
    if root.source[0] == "hom":
        _, a_label, b_label = root.source
        sa, da = model.slices[a_label]
        sb, db = model.slices[b_label]
        out = []
        for i in range(db):
            for j in range(da):
                f = linalg.zeros(n)
                f[sb + i][sa + j] = ONE
                out.append(_skew_extend(model, binv, f))
        return out
    _, a_label = root.source
    sa, da = model.slices[a_label]
    neg_label = model.system.standard_by_label()[a_label].negation
    sb, _ = model.slices[neg_label]
    cands = []
    for i in range(da):
        for j in range(da):
            f = linalg.zeros(n)
            f[sb + i][sa + j] = ONE
            cands.append(_skew_extend(model, binv, f))
    flat = [[x for row in m for x in row] for m in cands]
    red, pivots = linalg.rref(flat)
    out = []
    for r, _pc in enumerate(pivots):
        m = [[red[r][i * n + j] for j in range(n)] for i in range(n)]
        out.append(m)
    if len(out) != root.dim:
        raise AssertionError("weight space basis has the wrong dimension")
    return out


def _skew_extend(model: MatrixModel, binv: Optional[Mat], f: Mat) -> Mat:
    """X = f - B^{-1} f^T B, the unique form-skew extension; for special linear
    families (no form, no binv) the block itself is already in the algebra."""
    if binv is None:
        return f
    n = model.system.spec.ambient_dim
    corr = linalg.matmul(linalg.matmul(binv, linalg.transpose(f)), model.B)
    return [[f[i][j] - corr[i][j] for j in range(n)] for i in range(n)]


def killing_form_matrix(basis, sigma):
    """Exact Gram matrix of (X, X') -> Trace(sigma(X) X') on a given basis.

    ``basis`` is a list of square matrices over Q(i) spanning one adjoint
    weight space; ``sigma`` is the antilinear involution of the ambient
    algebra (a callable on such matrices). The result is Hermitian and its
    signature matches the closed-form weight-space signature up to nothing:
    the signs ``roots`` reads from eta and epsilon already include the
    proportionality sign.
    """
    mats = [m for m in basis]
    sig_mats = [sigma(m) for m in mats]
    n = len(mats[0])
    gram = []
    for sa in sig_mats:
        row = []
        for mb in mats:
            tr = ZERO
            for i in range(n):
                for l in range(n):
                    tr = tr + sa[i][l] * mb[l][i]
            row.append(tr)
        gram.append(row)
    return gram


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
        model = build_model(sys)
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
    model = build_model(sys)
    root = next(r for r in sys.adjoint if r.pure_imaginary)
    basis = adjoint_space_basis(model, root)
    gram = killing_form_matrix(basis, model.sigma)
    assert len(gram) == 4
    sig = signature_of(gram)
    assert abs(sig.value) == 2 and sig.dim == 4 and sig.null == 0


def test_model_realizes_declared_weight_signatures():
    rng = random.Random(12)
    for fam in Family:
        spec, bl = random_scenario(fam, rng)
        sys = root_system(spec, bl)
        build_model(sys)  # raises if any declared signature is off


def test_adjoint_space_basis_is_form_skew_across_fresh_models():
    """Every basis element X satisfies X^T B + B X = 0, for models built one
    after another so that freed forms are replaced by new ones."""
    rng = random.Random(21)
    families = [Family.SO, Family.SP_R, Family.SO_STAR, Family.SP,
                Family.SO_C, Family.SP_C]
    for k in range(300):
        spec, bl = random_scenario(families[k % len(families)], rng, cap=6)
        sys = root_system(spec, bl)
        model = build_model(sys)
        for root in sys.adjoint:
            for x in adjoint_space_basis(model, root):
                lhs = linalg.matmul(linalg.transpose(x), model.B)
                rhs = linalg.matmul(model.B, x)
                assert all((u + v).is_zero() for lrow, rrow in zip(lhs, rhs)
                           for u, v in zip(lrow, rrow)), (spec.describe(), root.label)


# --- reference: the loop-built ad and per-cluster SVD decomposition --------
# The oracle builds ad in Kronecker form and takes every weight space from one
# eigh; this is the earlier, independent pipeline it must agree with.

def _reference_algebra_basis(fm):
    """Null space of X -> X^T B + B X (or traceless matrices) by SVD."""
    n = fm.system.spec.ambient_dim
    if fm.B is None:
        rows = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    e = np.zeros((n, n), dtype=complex)
                    e[i, j] = 1.0
                    rows.append(e.reshape(-1))
        for i in range(n - 1):
            e = np.zeros((n, n), dtype=complex)
            e[i, i] = 1.0
            e[i + 1, i + 1] = -1.0
            rows.append(e.reshape(-1) / np.sqrt(2.0))
        q, _ = np.linalg.qr(np.array(rows).T)
        return q.T
    cols = []
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1.0
            cols.append((e.T @ fm.B + fm.B @ e).reshape(-1))
    _, sv, vh = np.linalg.svd(np.array(cols).T)
    nullity = n * n - int((sv > 1e-10).sum())
    return vh[n * n - nullity:, :].conj()


def _reference_ad(fm, basis):
    n = fm.system.spec.ambient_dim
    out = []
    for z in fm.centers:
        cols = [(z @ r.reshape(n, n) - r.reshape(n, n) @ z).reshape(-1) for r in basis]
        out.append((np.array(cols) @ basis.conj().T).T)
    return out


def _reference_roots(fm, tol=1e-9, seed=0):
    """(dim_g, zero_dim, sigma_equivariant, [(value, dim, signature)])."""
    n = fm.system.spec.ambient_dim
    basis = _reference_algebra_basis(fm)
    dim_g = basis.shape[0]
    ads = _reference_ad(fm, basis)
    rng = random.Random(seed)
    clusters = None
    for _ in range(8):
        coeffs = [rng.uniform(0.5, 1.5) * (1 if rng.random() < 0.5 else -1)
                  for _ in range(max(len(ads), 1))]
        m = sum(c * a for c, a in zip(coeffs, ads)) if ads else np.zeros((dim_g, dim_g))
        eigvals = np.linalg.eigvals(m)
        groups_ = []
        for v in sorted(eigvals, key=lambda z: (round(z.real, 12), round(z.imag, 12))):
            for g in groups_:
                if abs(v - g[0]) < tol * 10:
                    g.append(v)
                    break
            else:
                groups_.append([v])
        mus = [sum(g) / len(g) for g in groups_]
        if all(abs(a - b) >= 100 * tol for i, a in enumerate(mus) for b in mus[i + 1:]):
            clusters = [(mu, len(g)) for mu, g in zip(mus, groups_)]
            break
    assert clusters is not None
    has_sigma = fm.T is not None or fm.s is not None
    weights, spaces, zero_dim = [], [], 0
    for mu, cnt in clusters:
        _, _, vh = np.linalg.svd(m - mu * np.eye(dim_g))
        sub, _ = np.linalg.qr(vh[-cnt:, :].conj().T)
        value = tuple(complex(np.trace(sub.conj().T @ (ad @ sub)) / cnt) for ad in ads)
        if all(abs(v) <= 10 * tol for v in value):
            zero_dim += cnt
            continue
        sig = None
        if has_sigma:
            mats = [(basis.T @ sub[:, i]).reshape(n, n) for i in range(cnt)]
            gram = np.array([[np.trace(fm.sigma(xa) @ xb) for xb in mats] for xa in mats])
            assert np.abs(gram - gram.conj().T).max() <= 1e-8
            ev = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
            scale = max(1.0, np.abs(ev).max())
            pos, neg = int((ev > 1e-8 * scale).sum()), int((ev < -1e-8 * scale).sum())
            sig = (pos, neg, cnt - pos - neg)
        weights.append((value, cnt, sig))
        spaces.append((value, basis.T @ sub))
    sigma_ok = True
    for value, mats_flat in spaces if has_sigma else []:
        target = next((m2 for v2, m2 in spaces
                       if all(abs(a - np.conj(b)) < 100 * tol for a, b in zip(v2, value))),
                      None)
        if target is None:
            sigma_ok = False
            break
        q, _ = np.linalg.qr(target)
        for i in range(mats_flat.shape[1]):
            sx = fm.sigma(mats_flat[:, i].reshape(n, n)).reshape(-1)
            if np.linalg.norm(sx - q @ (q.conj().T @ sx)) / max(1.0, np.linalg.norm(sx)) > 1e-7:
                sigma_ok = False
    return dim_g, zero_dim, sigma_ok, weights


def test_eigh_pipeline_matches_loop_and_svd_reference():
    rng = random.Random(2024)
    for fam in Family:
        for _ in range(5):
            spec, bl = random_scenario(fam, rng)
            sys = root_system(spec, bl)
            fm = synthesize_model(sys, cap=12)
            seed = rng.randint(0, 10 ** 6)
            basis = _algebra_basis(fm)
            n = fm.system.spec.ambient_dim
            # orthonormal rows lying in the algebra
            assert np.abs(basis.conj() @ basis.T - np.eye(len(basis))).max() < 1e-12
            for row in basis:
                x = row.reshape(n, n)
                res = abs(np.trace(x)) if fm.B is None else np.abs(x.T @ fm.B + fm.B @ x).max()
                assert res < 1e-12, spec.describe()
            ads, _ = _ad_matrices(fm, basis)
            for ad, ref in zip(ads, _reference_ad(fm, basis)):
                assert np.abs(ad - ref).max() < 1e-12
            rep = brute_force_roots(fm, seed=seed)
            dim_g, zero_dim, sigma_ok, ref_weights = _reference_roots(fm, seed=seed)
            assert (rep.dim_g, rep.zero_dim, rep.sigma_equivariant) == \
                (dim_g, zero_dim, sigma_ok), spec.describe()
            assert len(rep.adjoint) == len(ref_weights)
            for value, dim, sig in ref_weights:
                w = next(w for w in rep.adjoint
                         if max(abs(a - b) for a, b in zip(w.value, value)) < 1e-9)
                assert (w.dim, w.signature) == (dim, sig), spec.describe()


def test_non_semisimple_center_is_rejected():
    sys = root_system(groups.sl_c(2), [blocks.cls(2, 1)])
    fm = synthesize_model(sys)
    fm.centers = [np.array([[0, 1], [0, 0]], dtype=complex)]
    with pytest.raises(OracleError, match="not normal"):
        brute_force_roots(fm)


SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "demos" / "scenarios").glob("*.json"))


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.name for p in SCENARIOS])
def test_diagnostics_clear_their_tolerances_on_demo_scenarios(path):
    """Each diagnostic sits at least a factor 1000 inside its tolerance."""
    sc = load(str(path))
    sys = root_system(sc.spec, sc.blocks)
    rep = brute_force_roots(synthesize_model(sys, sc.options.cap),
                            sc.options.tolerance, sc.options.seed)
    margin = 1e3
    assert rep.min_cluster_gap >= margin * 100 * sc.options.tolerance
    assert rep.max_normality_residual * margin <= EXACT_TOL
    assert rep.max_gram_residual * margin <= GRAM_TOL
    assert rep.max_sigma_residual * margin <= SIGMA_TOL
    assert rep.sigma_equivariant


# --- the forms: one rule per block kind ---------------------------------------
# The per-kind, per-family chain below is how T, B and s were written before
# the rules of `build_model`, which must give the same matrices. Every form is
# monomial, one unit per row and column, and every center element diagonal.

def _reference_model(system) -> MatrixModel:
    """The per-kind chain `build_model` once wrote T, B and s with, kept
    unverified as the reference for its rules."""
    spec = system.spec
    n = spec.ambient_dim
    fam = spec.family
    eps = spec.epsilon
    eta = spec.eta
    B = linalg.zeros(n) if spec.is_orthogonal_like else None
    s = linalg.zeros(n) if fam == Family.SU else None
    T = linalg.zeros(n) if eta is not None else None

    # one slice per weight space, in block order and each block's table order
    slices, starts = {}, {}
    pos = 0
    for r in system.standard + ([system.zero] if system.zero is not None else []):
        slices[r.label] = (pos, r.dim)
        starts.setdefault(r.block_label, []).append(pos)
        pos += r.dim
    assert pos == n

    for b in system.blocks:
        d = b.d_eff
        at = starts[b.label]
        if b.kind == "real_cls":
            st, = at
            if fam == Family.SL_R:
                for k in range(d):
                    T[st + k][st + k] = ONE
            else:  # SL_H, d even
                h = d // 2
                for k in range(h):
                    T[st + k][st + h + k] = -ONE
                    T[st + h + k][st + k] = ONE
        elif b.kind == "conj_pair":
            p, q = at
            for k in range(d):
                T[q + k][p + k] = ONE
                T[p + k][q + k] = GQ.of(eta)
        elif b.kind == "sesq_self":
            st, = at
            for k in range(d):
                s[st + k][st + k] = ONE if k < b.sig.pos else -ONE
        elif b.kind == "sesq_pair":
            p, q = at
            for k in range(d):
                s[p + k][q + k] = ONE
                s[q + k][p + k] = ONE
        elif b.kind == "imag_pair":
            lpos, lneg = at
            for k in range(d):
                T[lneg + k][lpos + k] = ONE
                T[lpos + k][lneg + k] = GQ.of(eta)
            for k in range(d):
                diag = ONE if k < b.sig.pos else -ONE
                skl = diag if spec.eta_epsilon == +1 else -I * diag
                B[lneg + k][lpos + k] = skl
                B[lpos + k][lneg + k] = GQ.of(eps) * skl
        elif b.kind == "split_pair":
            lpos, lneg = at
            for st in at:
                if eta == +1:
                    for k in range(d):
                        T[st + k][st + k] = ONE
                else:
                    h = d // 2
                    for k in range(h):
                        T[st + k][st + h + k] = -ONE
                        T[st + h + k][st + k] = ONE
            for k in range(d):
                B[lpos + k][lneg + k] = ONE
                B[lneg + k][lpos + k] = GQ.of(eps)
        elif b.kind == "quad_pair":
            p, pm, qq, qm = at
            for k in range(d):
                T[qq + k][p + k] = ONE
                T[p + k][qq + k] = GQ.of(eta)
                T[qm + k][pm + k] = ONE
                T[pm + k][qm + k] = GQ.of(eta)
            for k in range(d):
                for u, v in ((p, pm), (qq, qm)):
                    B[u + k][v + k] = ONE
                    B[v + k][u + k] = GQ.of(eps)
        elif b.kind == "dual_pair":
            p, q = at
            for k in range(d):
                B[p + k][q + k] = ONE
                B[q + k][p + k] = GQ.of(eps)
        elif b.kind == "zero":
            d0 = b.dim
            st, = at
            if fam == Family.SO:
                for k in range(d0):
                    T[st + k][st + k] = ONE
                    B[st + k][st + k] = ONE if k < b.sig.pos else -ONE
            elif fam == Family.SP_R:
                h = d0 // 2
                for k in range(d0):
                    T[st + k][st + k] = ONE
                for k in range(h):
                    B[st + k][st + h + k] = ONE
                    B[st + h + k][st + k] = -ONE
            elif fam == Family.SO_STAR:
                for c in range(d0 // 2):
                    a0, b0 = st + 2 * c, st + 2 * c + 1
                    T[a0][b0] = -ONE
                    T[b0][a0] = ONE
                    B[a0][b0] = -I
                    B[b0][a0] = -I
            elif fam == Family.SP:
                # cells realizing s-signature (2,0) (h-sign -1) come first
                n_minus = b.sig.pos // 2
                for c in range(d0 // 2):
                    a0, b0 = st + 2 * c, st + 2 * c + 1
                    T[a0][b0] = -ONE
                    T[b0][a0] = ONE
                    delta = -ONE if c < n_minus else ONE
                    B[a0][b0] = delta
                    B[b0][a0] = -delta
            elif fam == Family.SO_C:
                for k in range(d0):
                    B[st + k][st + k] = ONE
            elif fam == Family.SP_C:
                h = d0 // 2
                for k in range(h):
                    B[st + k][st + h + k] = ONE
                    B[st + h + k][st + k] = -ONE

    model = MatrixModel(system, B, s, T, slices)
    model.center = build_center_basis(model)
    return model


def _model_draws():
    for fam in Family:
        for s in range(20):
            yield random_scenario(fam, random.Random(s), cap=12)
    for path in SCENARIOS:
        sc = load(str(path))
        yield sc.spec, sc.blocks


def test_forms_equal_the_per_kind_chain():
    for spec, bl in _model_draws():
        system = root_system(spec, bl)
        model, ref = build_model(system), _reference_model(system)
        assert (model.T, model.B, model.s, model.slices, model.center) == \
            (ref.T, ref.B, ref.s, ref.slices, ref.center), spec.describe()


UNITS = {ONE, -ONE, I, -I}


def _is_monomial(m: Mat) -> bool:
    """Exactly one nonzero entry in each row and each column, and it is a unit."""
    nonzero = [(i, j) for i, row in enumerate(m) for j, x in enumerate(row) if not x.is_zero()]
    n = len(m)
    return (sorted(i for i, _ in nonzero) == list(range(n))
            and sorted(j for _, j in nonzero) == list(range(n))
            and all(m[i][j] in UNITS for i, j in nonzero))


def test_forms_are_monomial_and_the_center_diagonal():
    seen = set()
    for spec, bl in _model_draws():
        model = build_model(root_system(spec, bl))
        for name in ("T", "B", "s"):
            form = getattr(model, name)
            if form is not None:
                assert _is_monomial(form), (spec.describe(), name)
                seen.add((spec.family, name))
        for z in model.center:
            assert all(x.is_zero() for i, row in enumerate(z)
                       for j, x in enumerate(row) if i != j), spec.describe()
    assert len(seen) == 13   # T in six families, B in six, s in SU


# --- mutations of the weight table ------------------------------------------
# blocks.WEIGHTS is the one source of the symbolic weights and of the center's
# matrices, while T, B and s are built per block kind and the oracle recovers
# the weights numerically. Negating any coefficient of the table must then be
# caught, except where the flip merely re-parametrises the center: the single
# weight of a cls, real_cls or sesq_self block takes either sign of its
# coordinates.

REPARAMETRISING = {("cls", "z", "re", 0), ("cls", "z", "im", 1),
                   ("real_cls", "t", "re", 0), ("sesq_self", "il", "im", 0)}
TABLE_FLIPS = [(kind, w, part, j)
               for kind, table in blocks.WEIGHTS.items()
               for w, (_suffix, re, im) in enumerate(table)
               for part, coefs in (("re", re), ("im", im))
               for j, c in enumerate(coefs) if c]


def _flip_id(flip):
    kind, w, part, j = flip
    return f"{kind}:{blocks.WEIGHTS[kind][w][0]}.{part}[{j}]"


def _flipped_table(kind, w, part, j):
    table = list(blocks.WEIGHTS[kind])
    suffix, re, im = table[w]
    coefs = list(re if part == "re" else im)
    coefs[j] = -coefs[j]
    table[w] = (suffix, tuple(coefs), im) if part == "re" else (suffix, re, tuple(coefs))
    return tuple(table)


@functools.lru_cache(maxsize=None)
def _scenarios_with(kind, per_family=3):
    """Per family that admits the kind, the first seeded draws that use it."""
    out = []
    for fam in Family:
        if kind not in groups.FAMILIES[fam].kinds:
            continue
        draws = (random_scenario(fam, random.Random(s), cap=8) for s in range(200))
        found = [(spec, bl) for spec, bl in draws if any(b.kind == kind for b in bl)]
        assert len(found) >= per_family, (kind, fam)
        out += found[:per_family]
    return out


def _rejected(spec, bl) -> bool:
    try:
        return bool(oracle_check(root_system(spec, bl), seed=3))
    except (AssertionError, OracleError):
        return True


def _verdict(spec, bl):
    sc = Scenario(spec, SurfaceData(genus=spec.genus_bound()), bl,
                  options=Options(oracle=True))
    res = run_scenario(sc)
    return res.verdict.outcome, res.verdict.descriptor, res.oracle_problems


def test_table_flips_cover_every_kind():
    assert {flip[0] for flip in TABLE_FLIPS} == set(blocks.WEIGHTS)
    assert {(k, blocks.WEIGHTS[k][w][0], p, j) for k, w, p, j in TABLE_FLIPS} \
        >= REPARAMETRISING


@pytest.mark.parametrize("flip", TABLE_FLIPS, ids=[_flip_id(f) for f in TABLE_FLIPS])
def test_weight_table_flip_is_caught(monkeypatch, flip):
    kind, w, part, j = flip
    cases = _scenarios_with(kind)
    assert not any(_rejected(spec, bl) for spec, bl in cases)
    before = [_verdict(spec, bl) for spec, bl in cases]
    monkeypatch.setitem(blocks.WEIGHTS, kind, _flipped_table(*flip))
    if (kind, blocks.WEIGHTS[kind][w][0], part, j) in REPARAMETRISING:
        assert [_verdict(spec, bl) for spec, bl in cases] == before
    else:
        for spec, bl in cases:
            assert _rejected(spec, bl), spec.describe()


# --- every message of compare_reports ------------------------------------------
# A true SU(2,1) report, doctored one way at a time; the strings were recorded
# before the two weight levels shared one matcher.

def _su21_report():
    system = root_system(groups.su(2, 1), [blocks.sesq_self(1, (1, 0), (1, 0), label="a"),
                                           blocks.sesq_self(1, (1, 0), (1, 0), label="b"),
                                           blocks.sesq_self(1, (0, 1), (1, 0), label="c")])
    return brute_force_roots(synthesize_model(system))


def _bump_dim(w):
    w.dim += 1


def _flip_signature(w):
    w.signature = (w.signature[1], w.signature[0], w.signature[2])


def _nudge_real_part(w):
    # off the pure-imaginary axis by more than 100 * tol, still within the
    # matching distance 1000 * tol
    w.value = (w.value[0] + 5e-7,) + w.value[1:]


DOCTORS = {
    "dropped": (lambda r: (r.adjoint.pop(0), r.standard.pop(0)),
                ["adjoint weight a:il->b:il not found numerically",
                 "standard weight c:il not found numerically"]),
    "extra": (lambda r: (r.adjoint.append(NumericWeight((5j, 5j), 1, (1, 0, 0))),
                         r.standard.append(NumericWeight((3j, 3j), 1, (1, 0, 0)))),
              ["numeric adjoint weight (5j, 5j) has no symbolic match",
               "numeric standard weight (3j, 3j) has no symbolic match"]),
    "dimension": (lambda r: (_bump_dim(r.adjoint[0]), _bump_dim(r.standard[0])),
                  ["a:il->b:il: numeric dim 2 != 1",
                   "standard c:il: numeric dim 2 != 1"]),
    "signature": (lambda r: (_flip_signature(r.adjoint[0]),
                             _flip_signature(r.standard[0])),
                  ["a:il->b:il: numeric signature (1, 0, 0) != (0,1)",
                   "standard c:il: numeric signature (1, 0, 0) != (0,1)"]),
    "pure_imaginary": (lambda r: _nudge_real_part(r.adjoint[0]),
                       ["a:il->b:il: pure-imaginary flag disagrees numerically"]),
    "sigma": (lambda r: setattr(r, "sigma_equivariant", False),
              ["sigma equivariance of weight spaces failed"]),
    "dim_g": (lambda r: setattr(r, "dim_g", r.dim_g + 1),
              ["numeric algebra dimension 9 != 8"]),
    "zero_dim": (lambda r: setattr(r, "zero_dim", r.zero_dim + 1),
                 ["zero weight space: numeric 3, symbolic 2"]),
}


@pytest.mark.parametrize("name", DOCTORS)
def test_compare_reports_names_each_doctored_quantity(name):
    report = _su21_report()
    assert compare_reports(report) == []
    doctor, messages = DOCTORS[name]
    doctor(report)
    assert compare_reports(report) == messages


def test_compare_reports_keeps_its_message_order():
    report = _su21_report()
    for name in ("dim_g", "zero_dim", "sigma"):
        DOCTORS[name][0](report)
    for weights in (report.adjoint, report.standard):
        _bump_dim(weights[0])
        _flip_signature(weights[0])
        weights.pop()
    _nudge_real_part(report.adjoint[0])
    DOCTORS["extra"][0](report)
    assert compare_reports(report) == [
        "numeric algebra dimension 9 != 8",
        "zero weight space: numeric 3, symbolic 2",
        "a:il->b:il: numeric dim 2 != 1",
        "a:il->b:il: numeric signature (1, 0, 0) != (0,1)",
        "a:il->b:il: pure-imaginary flag disagrees numerically",
        "adjoint weight b:il->a:il not found numerically",
        "numeric adjoint weight (5j, 5j) has no symbolic match",
        "sigma equivariance of weight spaces failed",
        "standard c:il: numeric dim 2 != 1",
        "standard c:il: numeric signature (1, 0, 0) != (0,1)",
        "standard weight b:il not found numerically",
        "numeric standard weight (3j, 3j) has no symbolic match",
    ]
