"""Exact matrix models of the block data: forms, antilinear structure, and the
center of the centralizer as concrete matrices.

Every block kind corresponds to an explicit slice layout of C^n with the
invariant form, the antilinear map tau (for real and quaternionic forms) or
the sesquilinear form (for SU), and the block-scalar matrices spanning the
center. The construction doubles as a realizability witness for the scenario
vocabulary; all structural identities (tau^2 = eta, form compatibility, the
center consisting of fixed skew elements, the declared weight-space
signatures) are verified exactly at build time.
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
        roots = list(self.system.standard)
        if self.system.zero is not None:
            roots.append(self.system.zero)
        for r in roots:
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
    slices: Dict[str, Tuple[int, int]] = {}
    pos = 0

    def take(label: str, size: int) -> int:
        nonlocal pos
        slices[label] = (pos, size)
        start = pos
        pos += size
        return start

    fam = spec.family
    eps = spec.epsilon
    eta = spec.eta
    B = linalg.zeros(n) if spec.is_orthogonal_like else None
    s = linalg.zeros(n) if fam == Family.SU else None
    T = linalg.zeros(n) if eta is not None else None

    for b in system.blocks:
        d = b.d_eff
        if b.kind == "cls":
            take(f"{b.label}:z", d)
        elif b.kind == "real_cls":
            st = take(f"{b.label}:t", d)
            if fam == Family.SL_R:
                for k in range(d):
                    T[st + k][st + k] = ONE
            else:  # SL_H, d even
                h = d // 2
                for k in range(h):
                    T[st + k][st + h + k] = -ONE
                    T[st + h + k][st + k] = ONE
        elif b.kind == "conj_pair":
            p = take(f"{b.label}:z", d)
            q = take(f"{b.label}:zc", d)
            for k in range(d):
                T[q + k][p + k] = ONE
                T[p + k][q + k] = GQ.of(eta)
        elif b.kind == "sesq_self":
            st = take(f"{b.label}:il", d)
            for k in range(d):
                s[st + k][st + k] = ONE if k < b.sig.pos else -ONE
        elif b.kind == "sesq_pair":
            p = take(f"{b.label}:z", d)
            q = take(f"{b.label}:mzc", d)
            for k in range(d):
                s[p + k][q + k] = ONE
                s[q + k][p + k] = ONE
        elif b.kind == "imag_pair":
            lpos = take(f"{b.label}:+l", d)
            lneg = take(f"{b.label}:-l", d)
            for k in range(d):
                T[lneg + k][lpos + k] = ONE
                T[lpos + k][lneg + k] = GQ.of(eta)
            for k in range(d):
                diag = ONE if k < b.sig.pos else -ONE
                skl = diag if spec.eta_epsilon == +1 else -I * diag
                B[lneg + k][lpos + k] = skl
                B[lpos + k][lneg + k] = GQ.of(eps) * skl
        elif b.kind == "split_pair":
            lpos = take(f"{b.label}:+u", d)
            lneg = take(f"{b.label}:-u", d)
            for st in (lpos, lneg):
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
            p = take(f"{b.label}:+z", d)
            pm = take(f"{b.label}:-z", d)
            qq = take(f"{b.label}:+zc", d)
            qm = take(f"{b.label}:-zc", d)
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
            p = take(f"{b.label}:+z", d)
            q = take(f"{b.label}:-z", d)
            for k in range(d):
                B[p + k][q + k] = ONE
                B[q + k][p + k] = GQ.of(eps)
        elif b.kind == "zero":
            d0 = b.dim
            st = take("0", d0)
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
        else:
            raise AssertionError(b.kind)

    assert pos == n
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
    roots = list(model.system.standard)
    if model.system.zero is not None:
        roots.append(model.system.zero)
    for r in roots:
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


def _coordinate_pattern(model: MatrixModel, unit_label: str, which: str) -> Mat:
    """Matrix by which the raw parameter (unit, which) acts on C^n."""
    spec = model.spec
    n = model.n
    out = linalg.zeros(n)

    def put(label: str, scalar: GQ):
        st, size = model.slices[label]
        for k in range(size):
            out[st + k][st + k] = scalar

    b = next(bl for bl in model.system.blocks if bl.label == unit_label)
    if b.kind == "real_cls" and which == "t":
        put(f"{b.label}:t", ONE)
    elif b.kind == "cls":
        put(f"{b.label}:z", ONE if which == "x" else I)
    elif b.kind == "conj_pair":
        if which == "x":
            put(f"{b.label}:z", ONE)
            put(f"{b.label}:zc", ONE)
        else:
            put(f"{b.label}:z", I)
            put(f"{b.label}:zc", -I)
    elif b.kind == "sesq_self":
        put(f"{b.label}:il", I)
    elif b.kind == "sesq_pair":
        if which == "x":
            put(f"{b.label}:z", ONE)
            put(f"{b.label}:mzc", -ONE)
        else:
            put(f"{b.label}:z", I)
            put(f"{b.label}:mzc", I)
    elif b.kind == "imag_pair":
        put(f"{b.label}:+l", I)
        put(f"{b.label}:-l", -I)
    elif b.kind == "split_pair":
        put(f"{b.label}:+u", ONE)
        put(f"{b.label}:-u", -ONE)
    elif b.kind == "quad_pair":
        if which == "x":
            put(f"{b.label}:+z", ONE)
            put(f"{b.label}:-z", -ONE)
            put(f"{b.label}:+zc", ONE)
            put(f"{b.label}:-zc", -ONE)
        else:
            put(f"{b.label}:+z", I)
            put(f"{b.label}:-z", -I)
            put(f"{b.label}:+zc", -I)
            put(f"{b.label}:-zc", I)
    elif b.kind == "dual_pair":
        scalar = ONE if which == "x" else I
        put(f"{b.label}:+z", scalar)
        put(f"{b.label}:-z", -scalar)
    else:
        raise AssertionError((b.kind, which))
    return out


def build_center_basis(model: MatrixModel) -> List[Mat]:
    sysr = model.system
    k = sysr.dim_c
    out = []
    patterns = [_coordinate_pattern(model, lbl, which)
                for lbl, which in sysr.coord_units]
    for c in range(k):
        z = linalg.zeros(model.n)
        for i, pat in enumerate(patterns):
            coeff = sysr.reduce_matrix[i][c]
            if coeff == 0:
                continue
            for r in range(model.n):
                if not pat[r][r].is_zero():
                    z[r][r] = z[r][r] + GQ.of(coeff) * pat[r][r]
        out.append(z)
    return out
