"""Exact matrix models of the block data: forms, antilinear structure, and the
center of the centralizer as concrete matrices.

C^n is cut into one slice per standard weight space, in the order of the
root system's weights (block order, then the order of ``blocks.WEIGHTS``).
The center is read from the weights: element c acts on each weight's slice
by the scalar re[c] + i im[c]. The invariant form, the antilinear map tau
(for real and quaternionic forms) and the sesquilinear form (for SU) are
built per block kind, independently of the weights. The construction doubles
as a realizability witness for the scenario vocabulary; all structural
identities (tau^2 = eta, form compatibility, the center consisting of fixed
skew elements, the declared weight-space signatures) are verified exactly at
build time, so a weight that disagrees with the block's forms is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .exact import (GaussianRational, I, ONE, ZERO, is_hermitian, signature_of)
from .groups import Family, GroupSpec
from .roots import RootSystem
from . import linalg

GQ = GaussianRational
Mat = List[List[GQ]]


@dataclass
class MatrixModel:
    spec: GroupSpec
    system: RootSystem
    n: int
    B: Optional[Mat]          # invariant bilinear form, orthogonal-like families
    s: Optional[Mat]          # invariant sesquilinear form, SU
    T: Optional[Mat]          # tau(v) = T conj(v)
    eta: Optional[int]
    slices: Dict[str, Tuple[int, int]]   # standard weight label -> (start, size)
    center: List[Mat] = field(default_factory=list)   # exact basis of the center

    def sigma(self, x: Mat) -> Mat:
        """The antilinear involution cutting out the real form."""
        if self.T is not None:
            t_inv = [[GQ.of(self.eta) * v for v in row] for row in linalg.conjugate(self.T)]
            return linalg.matmul(linalg.matmul(self.T, linalg.conjugate(x)), t_inv)
        if self.s is not None:
            # sigma(X) = -s^{-1} X^dagger s; the model forms satisfy s^2 = 1
            out = linalg.matmul(linalg.matmul(self.s, linalg.conj_transpose(x)), self.s)
            return [[-v for v in row] for row in out]
        raise ValueError("complex families carry no antilinear involution")

    @property
    def has_involution(self) -> bool:
        return self.T is not None or self.s is not None

    def sesq_gram(self) -> Dict[str, Mat]:
        """Exact Gram of s_l(v, w) = B(tau v, w) (or of s itself for SU) on each
        standard weight space; i*Gram where s_l is skew."""
        grams = {}
        skew = self.spec.eta_epsilon == -1
        for r in _weight_spaces(self.system):
            if r.sig is None:
                continue
            start, size = self.slices[r.label]
            g = linalg.zeros(size)
            for kk in range(size):
                for ll in range(size):
                    if self.spec.family == Family.SU:
                        g[kk][ll] = self.s[start + kk][start + ll]
                    else:
                        # s(e_a, e_b) = sum_i T[i][a] B[i][b], with T sparse
                        acc = ZERO
                        for i in range(self.n):
                            t = self.T[i][start + kk]
                            if t.is_zero():
                                continue
                            bval = self.B[i][start + ll]
                            if not bval.is_zero():
                                acc = acc + t * bval
                        g[kk][ll] = acc
            if skew:
                g = [[I * x for x in row] for row in g]
            grams[r.label] = g
        return grams


def build_model(spec: GroupSpec, system: RootSystem) -> MatrixModel:
    n = spec.ambient_dim
    fam = spec.family
    eps = spec.epsilon
    eta = spec.eta
    B = linalg.zeros(n) if spec.is_orthogonal_like else None
    s = linalg.zeros(n) if fam == Family.SU else None
    T = linalg.zeros(n) if eta is not None else None

    # one slice per weight space, in block order and each block's table order
    slices: Dict[str, Tuple[int, int]] = {}
    starts: Dict[str, List[int]] = {}
    pos = 0
    for r in _weight_spaces(system):
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

    model = MatrixModel(spec, system, n, B, s, T, eta, slices)
    model.center = build_center_basis(model)
    _verify_model(model)
    return model


def _verify_model(model: MatrixModel):
    n = model.n
    spec = model.spec
    if model.T is not None:
        tt = linalg.matmul(model.T, linalg.conjugate(model.T))
        expect = GQ.of(model.eta)
        for i in range(n):
            for j in range(n):
                want = expect if i == j else ZERO
                if tt[i][j] != want:
                    raise AssertionError("tau^2 != eta")
    if model.B is not None:
        bt = linalg.transpose(model.B)
        for i in range(n):
            for j in range(n):
                if bt[i][j] != GQ.of(spec.epsilon) * model.B[i][j]:
                    raise AssertionError("form is not epsilon-symmetric")
        if linalg.rank(model.B) != n:
            raise AssertionError("form is degenerate")
        if model.T is not None:
            lhs = linalg.matmul(linalg.matmul(linalg.transpose(model.T), model.B), model.T)
            rhs = linalg.conjugate(model.B)
            if lhs != rhs:
                raise AssertionError("form and tau are incompatible")
    if model.s is not None:
        if not is_hermitian(model.s):
            raise AssertionError("sesquilinear form is not Hermitian")
        sig = signature_of(model.s)
        if (sig.pos, sig.neg) != (spec.p, spec.q):
            raise AssertionError("sesquilinear form has the wrong signature")
    # declared weight-space signatures are realized
    grams = model.sesq_gram()
    for r in _weight_spaces(model.system):
        if r.sig is None:
            continue
        g = grams[r.label]
        if not is_hermitian(g):
            raise AssertionError(f"weight form on {r.label} is not Hermitian")
        got = signature_of(g)
        if (got.pos, got.neg, got.null) != (r.sig.pos, r.sig.neg, 0):
            raise AssertionError(
                f"weight form on {r.label}: declared {r.sig}, built {got}")
    # the center consists of fixed points that are skew / traceless
    for z in model.center:
        if model.has_involution:
            if model.sigma(z) != z:
                raise AssertionError("center element is not fixed by sigma")
        if model.B is not None:
            zb = linalg.matmul(linalg.transpose(z), model.B)
            bz = linalg.matmul(model.B, z)
            for i in range(n):
                for j in range(n):
                    if zb[i][j] + bz[i][j] != ZERO:
                        raise AssertionError("center element is not form-skew")
        else:
            tr = sum((z[i][i] for i in range(n)), ZERO)
            if not tr.is_zero():
                raise AssertionError("center element has nonzero trace")


def _weight_spaces(system: RootSystem):
    """The standard weights, then the zero weight when there is one."""
    return system.standard + ([system.zero] if system.zero is not None else [])


def build_center_basis(model: MatrixModel) -> List[Mat]:
    """Center element c acts on the slice of each standard weight by the
    weight's value re[c] + i im[c], and by 0 on the zero weight space."""
    out = []
    for c in range(model.system.dim_c):
        z = linalg.zeros(model.n)
        for r in model.system.standard:
            start, size = model.slices[r.label]
            for k in range(start, start + size):
                z[k][k] = GQ(r.re[c], r.im[c])
        out.append(z)
    return out
