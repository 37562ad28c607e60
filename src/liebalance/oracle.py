"""Floating-point verification of the symbolic weight decomposition.

The oracle takes the same block data, builds the explicit matrix model, and
then ignores everything the symbolic side knows. It recovers the weight
decomposition numerically:

- an orthonormal basis of the ambient algebra (B^-1 times the skew or
  symmetric matrices for a form B, units and the traceless diagonal for sl);
- the adjoint action of each center element in that basis, built in
  Kronecker form and required to be normal;
- every weight space at once from one ``eigh`` of the Hermitian part of a
  random combination of the ad matrices, each weight read from
  diag(V^H ad V);
- the signatures by eigenvalue counts of the Hermitian Gram matrices of
  Trace(sigma(X) X'), and the sigma equivariance of the weight spaces.

Agreement with the symbolic report is then a genuine cross-check of the
closed-form weight and signature rules. The model's center is read from the
symbolic standard weights (``blocks.WEIGHTS``), but its forms T, B and s are
built per block kind, and the adjoint weights, their dimensions and their
signatures are recovered here numerically; a standard weight that disagrees
with the forms fails the model's sigma or skewness checks. Each report also
carries how far the accepted quantities sit from their tolerances.

Floats only live in this module. Every comparison carries an explicit
tolerance: 1e-9 for eigenvalue clustering, 1e-12 for identities.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .blocks import Block
from .groups import GroupSpec
from .modelbuild import build_model
from .roots import RootSystem, root_system

CLUSTER_TOL = 1e-9
EXACT_TOL = 1e-12
GRAM_TOL = 1e-8     # Hermitian residual of a Gram matrix; zero threshold of its eigenvalues
SIGMA_TOL = 1e-7    # relative residual of sigma(X) off its target weight space
RESAMPLES = 8       # random combinations tried before the decomposition gives up
DEFAULT_CAP = 12


class OracleError(RuntimeError):
    pass


def _to_np(mat) -> np.ndarray:
    return np.array([[complex(x) for x in row] for row in mat], dtype=complex)


@dataclass
class NumericWeight:
    value: Tuple[complex, ...]
    dim: int
    signature: Optional[Tuple[int, int, int]]   # pos, neg, null or None


@dataclass
class NumericRootReport:
    standard: List[NumericWeight]
    adjoint: List[NumericWeight]
    dim_g: int
    zero_dim: int
    sigma_equivariant: bool
    # Diagnostics, each beside the tolerance it must respect. The Gram and
    # sigma residuals are None for complex groups, which have no sigma.
    min_cluster_gap: float                # >= 100 * tol; inf for one cluster
    max_normality_residual: float         # <= EXACT_TOL
    max_gram_residual: Optional[float]    # <= GRAM_TOL
    max_sigma_residual: Optional[float]   # <= SIGMA_TOL when sigma_equivariant


@dataclass
class FloatModel:
    spec: GroupSpec
    n: int
    B: Optional[np.ndarray]
    s: Optional[np.ndarray]
    T: Optional[np.ndarray]
    eta: Optional[int]
    centers: List[np.ndarray]

    def sigma(self, x: np.ndarray) -> Optional[np.ndarray]:
        """sigma of a matrix, or of each matrix in a stack (last two axes)."""
        if self.T is not None:
            t_inv = self.eta * np.conj(self.T)
            return self.T @ np.conj(x) @ t_inv
        if self.s is not None:
            return -self.s @ np.swapaxes(np.conj(x), -1, -2) @ self.s
        return None


def synthesize_model(system: RootSystem, cap: int = DEFAULT_CAP) -> FloatModel:
    """Exact model of the root system's datum, floated; raises when the
    ambient dimension exceeds the cap."""
    spec = system.spec
    if spec.ambient_dim > cap:
        raise OracleError(f"ambient dimension {spec.ambient_dim} exceeds cap {cap}")
    exact = build_model(spec, system)
    fm = FloatModel(
        spec, exact.n,
        None if exact.B is None else _to_np(exact.B),
        None if exact.s is None else _to_np(exact.s),
        None if exact.T is None else _to_np(exact.T),
        exact.eta,
        [_to_np(z) for z in exact.center],
    )
    _check_float_model(fm)
    return fm


def _check_float_model(fm: FloatModel):
    if fm.T is not None:
        res = np.abs(fm.T @ np.conj(fm.T) - fm.eta * np.eye(fm.n)).max()
        if res > EXACT_TOL:
            raise OracleError(f"tau^2 deviates from eta by {res}")
    for z in fm.centers:
        sz = fm.sigma(z)
        if sz is not None and np.abs(sz - z).max() > EXACT_TOL:
            raise OracleError("center element is not sigma-fixed")
        if fm.B is not None:
            res = np.abs(z.T @ fm.B + fm.B @ z).max()
            if res > EXACT_TOL:
                raise OracleError("center element is not form-skew")
        for z2 in fm.centers:
            if np.abs(z @ z2 - z2 @ z).max() > EXACT_TOL:
                raise OracleError("center is not abelian")


def _algebra_basis(fm: FloatModel) -> np.ndarray:
    """Orthonormal basis (rows, flattened) of the ambient complex algebra.

    With a form B the algebra is {X : X^T B + B X = 0}. BX is skew when B is
    symmetric and symmetric when B is skew, so the algebra is B^-1 times the
    skew (or symmetric) matrices. Without a form it is sl(n): the off-diagonal
    units and an orthonormal basis of the traceless diagonal."""
    n = fm.n
    if fm.B is None:
        off = [i * n + j for i in range(n) for j in range(n) if i != j]
        # columns e_i - e_(i+1) span the traceless diagonal
        q, _ = np.linalg.qr(np.eye(n, n - 1) - np.eye(n, n - 1, k=-1))
        basis = np.zeros((n * n - 1, n * n), dtype=complex)
        basis[np.arange(len(off)), off] = 1.0
        basis[len(off):, np.arange(n) * (n + 1)] = q.T
        return basis
    if np.abs(fm.B - fm.B.T).max() <= EXACT_TOL:
        rows, cols = np.triu_indices(n, 1)     # E_ij - E_ji
        sign = -1.0
    elif np.abs(fm.B + fm.B.T).max() <= EXACT_TOL:
        rows, cols = np.triu_indices(n)        # E_ij + E_ji
        sign = 1.0
    else:
        raise OracleError("invariant form is neither symmetric nor skew")
    m = len(rows)
    units = np.zeros((m, n, n), dtype=complex)
    units[np.arange(m), rows, cols] = 1.0
    units[np.arange(m), cols, rows] = sign
    q, _ = np.linalg.qr((np.linalg.inv(fm.B) @ units).reshape(m, n * n).T)
    return q.T


def _ad_matrices(fm: FloatModel, basis: np.ndarray) -> Tuple[List[np.ndarray], float]:
    """ad(z) of each center element in the orthonormal basis, with the largest
    normality residual |ad ad^H - ad^H ad|; raises unless every ad is normal
    (a non-semisimple center element gives a non-normal ad)."""
    eye = np.eye(fm.n)
    left, right = basis.conj(), basis.T
    # vec(z X - X z) = (z (x) I - I (x) z^T) vec(X) for row-major vec
    ads = [left @ (np.kron(z, eye) - np.kron(eye, z.T)) @ right for z in fm.centers]
    normality = max((float(np.abs(a @ a.conj().T - a.conj().T @ a).max()) for a in ads),
                    default=0.0)
    if normality > EXACT_TOL:
        raise OracleError(f"ad of a center element is not normal ({normality})")
    return ads, normality


def _joint_eigenspaces(ads: List[np.ndarray], dim_g: int, tol: float, seed: int):
    """Weight spaces of the commuting normal family ``ads`` from one ``eigh``.

    The Hermitian part of a random complex combination has one eigenvalue per
    weight, Re(sum c_j lambda_j). Its sorted eigenvalues are clustered (a value
    joins the open cluster while within 10*tol of the cluster's first value);
    a combination is resampled when two cluster means lie within 100*tol, or
    when a cluster is not a joint eigenspace of every ad. Returns the unitary
    eigenvector matrix, the cluster boundaries, the weight of each cluster
    (one row per cluster, read from diag(V^H ad V)) and the smallest gap."""
    rng = random.Random(seed)
    problem = ""
    for _ in range(RESAMPLES):
        m = np.zeros((dim_g, dim_g), dtype=complex)
        for a in ads:
            m += cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0.0, 2 * math.pi)) * a
        ev, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        vals = ev.tolist()
        starts = [0]
        for i in range(1, dim_g):
            if vals[i] - vals[starts[-1]] >= 10 * tol:
                starts.append(i)
        bounds = np.array(starts + [dim_g])
        sizes = np.diff(bounds)
        means = np.add.reduceat(ev, bounds[:-1]) / sizes
        gap = float(np.diff(means).min()) if len(means) > 1 else math.inf
        if gap < 100 * tol:
            problem = "eigenvalue clustering stayed ambiguous after resampling"
            continue
        values = np.zeros((len(sizes), len(ads)), dtype=complex)
        residual = 0.0
        vecs_conj = vecs.conj()
        for j, a in enumerate(ads):
            av = a @ vecs
            diag = np.einsum("ij,ij->j", vecs_conj, av)
            values[:, j] = np.add.reduceat(diag, bounds[:-1]) / sizes
            residual = max(residual, float(np.abs(
                av - vecs * np.repeat(values[:, j], sizes)).max()))
        if residual > 10 * tol:
            problem = f"an eigenvalue cluster is not a joint eigenspace ({residual})"
            continue
        return vecs, bounds, values, gap
    raise OracleError(problem)


def brute_force_roots(system: RootSystem, fm: FloatModel, tol: float = CLUSTER_TOL,
                      seed: int = 0) -> NumericRootReport:
    """Simultaneous eigendecomposition of ad(center) on the ambient algebra."""
    n = fm.n
    basis = _algebra_basis(fm)
    dim_g = basis.shape[0]
    ads, normality = _ad_matrices(fm, basis)
    vecs, bounds, values, gap = _joint_eigenspaces(ads, dim_g, tol, seed)
    clusters = list(zip(bounds[:-1], bounds[1:]))
    nonzero = [bool((np.abs(v) > 10 * tol).any()) for v in values]

    has_sigma = fm.T is not None or fm.s is not None
    gram_res = sigma_res = None
    sigma_ok = True
    if has_sigma:
        # the weight vectors as matrices X_a; orthonormal, since basis and V are
        x = (vecs.T @ basis).reshape(dim_g, n, n)
        sx = fm.sigma(x)
        # Trace(sigma(X_a) X_b); optimize routes the contraction through BLAS
        gram = np.einsum("aij,bji->ab", sx, x, optimize=True)
        gram_res = max((float(np.abs(gram[a:b, a:b] - gram[a:b, a:b].conj().T).max())
                        for (a, b), nz in zip(clusters, nonzero) if nz), default=0.0)
        if gram_res > GRAM_TOL:
            raise OracleError(f"weight Gram is not Hermitian ({gram_res})")
        sigma_ok, sigma_res = _check_sigma_equivariance(
            x.reshape(dim_g, -1), sx.reshape(dim_g, -1), bounds, values, tol)

    weights: List[NumericWeight] = []
    zero_dim = 0
    for (a, b), value, nz in zip(clusters, values, nonzero):
        cnt = int(b - a)
        if not nz:
            zero_dim += cnt
            continue
        sig = None
        if has_sigma:
            g = gram[a:b, a:b]
            ev = np.linalg.eigvalsh((g + g.conj().T) / 2)
            scale = max(1.0, np.abs(ev).max())
            pos = int((ev > GRAM_TOL * scale).sum())
            neg = int((ev < -GRAM_TOL * scale).sum())
            sig = (pos, neg, cnt - pos - neg)
        weights.append(NumericWeight(tuple(complex(v) for v in value), cnt, sig))

    standard = _standard_weights(system, fm, tol)
    return NumericRootReport(standard, weights, dim_g, zero_dim, sigma_ok,
                             gap, normality, gram_res, sigma_res)


def _check_sigma_equivariance(y: np.ndarray, sy: np.ndarray, bounds: np.ndarray,
                              values: np.ndarray, tol: float) -> Tuple[bool, float]:
    """sigma maps the space of weight lambda onto the space of conj(lambda).

    ``y`` holds the orthonormal weight vectors as rows (flattened matrices)
    and ``sy`` their images under sigma. Returns whether every image lies in
    its target space, and the largest relative residual off it."""
    sizes = np.diff(bounds)
    cluster_of = np.repeat(np.arange(len(sizes)), sizes)
    # dist[b, c]: how far the weight of cluster b is from conj(weight of c)
    dist = np.abs(values[:, None, :] - values.conj()[None, :, :]).max(axis=2, initial=0.0)
    close = dist < 100 * tol
    found = close.any(axis=0)
    target = np.where(found, close.argmax(axis=0), -1)
    # coefficients of each image on every weight vector, kept on the target space
    coeffs = y.conj() @ sy.T
    coeffs *= cluster_of[:, None] == target[cluster_of][None, :]
    off = sy - coeffs.T @ y
    norms = np.linalg.norm(sy, axis=1)
    residual = float((np.linalg.norm(off, axis=1) / np.maximum(1.0, norms)).max())
    return bool(found.all()) and residual <= SIGMA_TOL, residual


def _standard_weights(system: RootSystem, fm: FloatModel, tol: float):
    n = fm.n
    k = len(fm.centers)
    skew = system.spec.eta_epsilon == -1
    if k == 0:
        groups_: List[List[int]] = [list(range(n))]
    else:
        diag = np.array([[fm.centers[c][i, i] for c in range(k)] for i in range(n)])
        groups_ = []
        for i in range(n):
            for g in groups_:
                if np.abs(diag[g[0]] - diag[i]).max() < 10 * tol:
                    g.append(i)
                    break
            else:
                groups_.append([i])
    out: List[NumericWeight] = []
    for g in groups_:
        value = tuple(complex(v) for v in diag[g[0]]) if k else tuple()
        sig = None
        gram = None
        if fm.T is not None and fm.B is not None:
            gram = np.array([[fm.T[:, ia] @ fm.B[:, ib] for ib in g] for ia in g])
            if skew:
                gram = 1j * gram
        elif fm.s is not None:
            gram = fm.s[np.ix_(g, g)]
        if gram is not None and np.abs(gram - gram.conj().T).max() < GRAM_TOL:
            ev = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
            scale = max(1.0, float(np.abs(ev).max()) if len(ev) else 1.0)
            pos = int((ev > GRAM_TOL * scale).sum())
            neg = int((ev < -GRAM_TOL * scale).sum())
            if pos + neg == len(g):
                sig = (pos, neg, 0)
        out.append(NumericWeight(value, len(g), sig))
    return out


def compare_reports(system: RootSystem, report: NumericRootReport,
                    tol: float = CLUSTER_TOL) -> List[str]:
    """Mismatches between the symbolic decomposition and the numeric one."""
    problems: List[str] = []
    k = system.dim_c

    def to_value(re, im):
        return tuple(float(a) + 1j * float(b) for a, b in zip(re, im))

    def find(weights, value):
        for w in weights:
            if len(w.value) == len(value) and \
                    all(abs(a - b) < 1000 * tol for a, b in zip(w.value, value)):
                return w
        return None

    # adjoint level
    total, expect = system.dim_audit()
    if report.dim_g != expect:
        problems.append(f"numeric algebra dimension {report.dim_g} != {expect}")
    if report.zero_dim != system.dim_g0:
        problems.append(f"zero weight space: numeric {report.zero_dim}, "
                        f"symbolic {system.dim_g0}")
    matched = set()
    for r in system.adjoint:
        w = find(report.adjoint, to_value(r.re, r.im))
        if w is None:
            problems.append(f"adjoint weight {r.label} not found numerically")
            continue
        matched.add(id(w))
        if w.dim != r.dim:
            problems.append(f"{r.label}: numeric dim {w.dim} != {r.dim}")
        if r.pure_imaginary and r.sig is not None and w.signature is not None:
            if (r.sig.pos, r.sig.neg, 0) != w.signature:
                problems.append(f"{r.label}: numeric signature {w.signature} "
                                f"!= {r.sig}")
        numeric_pure_im = all(abs(v.real) < 100 * tol for v in w.value)
        if bool(r.pure_imaginary) != numeric_pure_im:
            problems.append(f"{r.label}: pure-imaginary flag disagrees numerically")
    for w in report.adjoint:
        if id(w) not in matched:
            problems.append(f"numeric adjoint weight {w.value} has no symbolic match")
    if not report.sigma_equivariant:
        problems.append("sigma equivariance of weight spaces failed")

    # standard level
    roots = list(system.standard)
    if system.zero is not None:
        roots.append(system.zero)
    matched = set()
    for r in roots:
        w = find(report.standard, to_value(r.re, r.im))
        if w is None:
            problems.append(f"standard weight {r.label} not found numerically")
            continue
        matched.add(id(w))
        if w.dim != r.dim:
            problems.append(f"standard {r.label}: numeric dim {w.dim} != {r.dim}")
        if r.sig is not None and w.signature is not None:
            if (r.sig.pos, r.sig.neg, 0) != w.signature:
                problems.append(f"standard {r.label}: numeric signature "
                                f"{w.signature} != {r.sig}")
    for w in report.standard:
        if id(w) not in matched:
            problems.append(f"numeric standard weight {w.value} has no symbolic match")
    return problems


def oracle_check(spec: GroupSpec, blocks: Sequence[Block], seed: int = 0,
                 tol: float = CLUSTER_TOL, cap: int = DEFAULT_CAP) -> List[str]:
    system = root_system(spec, blocks)
    report = brute_force_roots(system, synthesize_model(system, cap), tol, seed)
    return compare_reports(system, report, tol)
