"""Exact matrix models of the block data: forms, antilinear structure, and the
center of the centralizer as concrete matrices.

C^n is cut into one slice per standard weight space, in the order of the
root system's weights (block order, then the order of ``blocks.WEIGHTS``).
The center is read from the weights: element c acts on each weight's slice
by the scalar re[c] + i im[c]. The invariant form, the antilinear map tau
(for real and quaternionic forms) and the sesquilinear form (for SU) come
from one short rule per block kind, independently of the weights: each
reads only the slice starts, the block's dimension and signature, and the
group's eta, epsilon and eta*epsilon, and only the zero block's rule depends
on the family. So every T, B and s has one unit (+-1, +-i) in each row and
column. The construction doubles as a realizability witness for the
scenario vocabulary; all structural identities (tau^2 = eta, form
compatibility, the center consisting of fixed skew elements, the declared
weight-space signatures) are verified exactly at build time, so a weight
that disagrees with the block's forms is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .blocks import Block
from .exact import (GaussianRational, I, ONE, ZERO, Signature, is_hermitian, signature_of)
from .groups import Family, GroupSpec
from .roots import RootSystem
from . import linalg

GQ = GaussianRational
Mat = List[List[GQ]]


@dataclass
class MatrixModel:
    system: RootSystem
    B: Optional[Mat]          # invariant bilinear form, orthogonal-like families
    s: Optional[Mat]          # invariant sesquilinear form, SU
    T: Optional[Mat]          # tau(v) = T conj(v)
    slices: Dict[str, Tuple[int, int]]   # standard weight label -> (start, size)
    center: List[Mat] = field(default_factory=list)   # exact basis of the center

    def sigma(self, x: Mat) -> Mat:
        """The antilinear involution cutting out the real form."""
        if self.T is not None:
            eta = self.system.spec.eta
            t_inv = [[GQ.of(eta) * v for v in row] for row in linalg.conjugate(self.T)]
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
        skew = self.system.spec.eta_epsilon == -1
        for r in self.system.standard_by_label().values():
            if r.sig is None:
                continue
            start, size = self.slices[r.label]
            g = linalg.zeros(size)
            for kk in range(size):
                for ll in range(size):
                    if self.system.spec.family == Family.SU:
                        g[kk][ll] = self.s[start + kk][start + ll]
                    else:
                        # s(e_a, e_b) = sum_i T[i][a] B[i][b], with T sparse
                        acc = ZERO
                        for i in range(self.system.spec.ambient_dim):
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


def build_model(system: RootSystem) -> MatrixModel:
    spec = system.spec
    n = spec.ambient_dim
    eta = spec.eta
    B = linalg.zeros(n) if spec.is_orthogonal_like else None
    s = linalg.zeros(n) if spec.family == Family.SU else None
    T = linalg.zeros(n) if eta is not None else None
    tau = GQ.of(eta) if eta is not None else None
    eps = GQ.of(spec.epsilon) if spec.epsilon is not None else None

    # one slice per weight space, in block order and each block's table order
    slices: Dict[str, Tuple[int, int]] = {}
    starts: Dict[str, List[int]] = {}
    pos = 0
    for r in system.standard_by_label().values():
        slices[r.label] = (pos, r.dim)
        starts.setdefault(r.block_label, []).append(pos)
        pos += r.dim
    assert pos == n

    # one rule per kind: tau pairs the slices it swaps with (1, eta) and is
    # the identity or j on those it fixes, B pairs dual slices with
    # (1, epsilon), and an SL(n,C) class carries no form
    for b in system.blocks:
        d, at = b.d_eff, starts[b.label]
        if b.kind == "real_cls":
            _tau_stable(T, at[0], d, eta)
        elif b.kind == "conj_pair":
            _pair(T, *at, ONE, tau, d)
        elif b.kind == "sesq_self":
            signs = _signs(b.sig, ONE)
            _pair(s, at[0], at[0], signs, signs, d)
        elif b.kind == "sesq_pair":
            _pair(s, *at, ONE, ONE, d)
        elif b.kind == "imag_pair":
            # a sign per coordinate, times -i where s is skew
            signs = _signs(b.sig, ONE if spec.eta_epsilon == +1 else -I)
            _pair(T, *at, ONE, tau, d)
            _pair(B, *at, signs, [eps * u for u in signs], d)
        elif b.kind == "split_pair":
            _tau_stable(T, at[0], d, eta)
            _tau_stable(T, at[1], d, eta)
            _pair(B, at[1], at[0], ONE, eps, d)
        elif b.kind == "quad_pair":
            p, pm, q, qm = at
            _pair(T, p, q, ONE, tau, d)
            _pair(T, pm, qm, ONE, tau, d)
            _pair(B, pm, p, ONE, eps, d)
            _pair(B, qm, q, ONE, eps, d)
        elif b.kind == "dual_pair":
            _pair(B, at[1], at[0], ONE, eps, d)
        elif b.kind == "zero":
            _zero_forms(spec, b, at[0], T, B, eps)

    model = MatrixModel(system, B, s, T, slices)
    model.center = build_center_basis(model)
    _verify_model(model)
    return model


def _pair(m: Mat, a: int, b: int, x, y, d: int) -> None:
    """Pair slice a with slice b: x at [b+k][a+k] and y at [a+k][b+k] for
    k < d, each one unit for every k or a list of one unit per k. With
    a = b and x = y it writes a diagonal."""
    xs = x if isinstance(x, list) else [x] * d
    ys = y if isinstance(y, list) else [y] * d
    for k in range(d):
        m[b + k][a + k] = xs[k]
        m[a + k][b + k] = ys[k]


def _tau_stable(T: Mat, a: int, d: int, eta: int) -> None:
    """tau on a slice it fixes: the identity, or for eta = -1 the half-split
    j, which sends the first half to the second and the second to minus the
    first."""
    if eta == +1:
        _pair(T, a, a, ONE, ONE, d)
    else:
        _pair(T, a, a + d // 2, ONE, -ONE, d // 2)


def _signs(sig: Signature, unit: GQ) -> List[GQ]:
    """unit on the positive coordinates of a signature, -unit on the rest."""
    return [unit] * sig.pos + [-unit] * sig.neg


def _zero_forms(spec: GroupSpec, b: Block, a: int, T: Optional[Mat], B: Mat,
                eps: GQ) -> None:
    """The zero block, the one rule that depends on the family."""
    d0 = b.dim
    if spec.family in (Family.SO_STAR, Family.SP):
        # interleaved 2-cells, each carrying j; for Sp(p,q) the cells
        # realizing s-signature (2,0) (h-sign -1) come first
        for c in range(d0 // 2):
            a0 = a + 2 * c
            _tau_stable(T, a0, 2, spec.eta)
            if spec.family == Family.SO_STAR:
                u = -I
            else:
                u = -ONE if c < b.sig.pos // 2 else ONE
            _pair(B, a0, a0 + 1, eps * u, u, 1)
        return
    if T is not None:
        _tau_stable(T, a, d0, spec.eta)
    if spec.epsilon == +1:
        # SO(p,q) carries the declared signs, SO(n,C) the identity
        signs = _signs(b.sig, ONE) if b.sig is not None else ONE
        _pair(B, a, a, signs, signs, d0)
    else:
        _pair(B, a + d0 // 2, a, ONE, eps, d0 // 2)


def _verify_model(model: MatrixModel):
    spec = model.system.spec
    n = spec.ambient_dim
    if model.T is not None:
        tt = linalg.matmul(model.T, linalg.conjugate(model.T))
        expect = GQ.of(spec.eta)
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
    for r in model.system.standard_by_label().values():
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


def build_center_basis(model: MatrixModel) -> List[Mat]:
    """Center element c acts on the slice of each standard weight by the
    weight's value re[c] + i im[c], and by 0 on the zero weight space."""
    out = []
    for c in range(model.system.dim_c):
        z = linalg.zeros(model.system.spec.ambient_dim)
        for r in model.system.standard:
            start, size = model.slices[r.label]
            for k in range(start, start + size):
                z[k][k] = GQ(r.re[c], r.im[c])
        out.append(z)
    return out
