"""Floating-point verification of the symbolic weight decomposition.

The oracle takes the same block data, builds the explicit matrix model, and
then ignores everything the symbolic side knows: it recovers the weight
decomposition by simultaneous eigendecomposition of the adjoint action of the
center on a numerically computed basis of the ambient algebra, and the
signatures by eigenvalue counts of the Hermitian Gram matrices of
Trace(sigma(X) X'). Agreement with the symbolic report is then a genuine
cross-check of the closed-form weight and signature rules.

Floats only live in this module. Every comparison carries an explicit
tolerance: 1e-9 for eigenvalue clustering, 1e-12 for identities.
"""

from __future__ import annotations

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
        if self.T is not None:
            t_inv = self.eta * np.conj(self.T)
            return self.T @ np.conj(x) @ t_inv
        if self.s is not None:
            return -self.s @ np.conj(x).T @ self.s
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
        [_to_np(z) for z in exact.center_basis()],
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
    """Orthonormal basis (rows, flattened) of the ambient complex algebra."""
    n = fm.n
    if fm.B is None:
        # traceless matrices
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
        basis = np.array(rows)
        q, _ = np.linalg.qr(basis.T)
        return q.T
    # solve the linear system L(X) = X^T B + B X = 0 on flattened X
    cols = []
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1.0
            cols.append((e.T @ fm.B + fm.B @ e).reshape(-1))
    lmat = np.array(cols).T
    _, sv, vh = np.linalg.svd(lmat)
    nullity = n * n - int((sv > 1e-10).sum())
    return vh[n * n - nullity:, :].conj()


def brute_force_roots(system: RootSystem, fm: FloatModel, tol: float = CLUSTER_TOL,
                      seed: int = 0) -> NumericRootReport:
    """Simultaneous eigendecomposition of ad(center) on the ambient algebra."""
    n = fm.n
    basis = _algebra_basis(fm)
    dim_g = basis.shape[0]
    k = len(fm.centers)

    def as_mats(rows: np.ndarray) -> List[np.ndarray]:
        return [r.reshape(n, n) for r in rows]

    ad_mats = []
    pinv = basis.conj().T   # orthonormal rows: pseudo-inverse is the adjoint
    for z in fm.centers:
        cols = []
        for r in basis:
            x = r.reshape(n, n)
            cols.append((z @ x - x @ z).reshape(-1))
        ad = (np.array(cols) @ pinv).T
        ad_mats.append(ad)

    rng = random.Random(seed)
    clusters = None
    for attempt in range(8):
        coeffs = [rng.uniform(0.5, 1.5) * (1 if rng.random() < 0.5 else -1)
                  for _ in range(max(k, 1))]
        m = sum(c * a for c, a in zip(coeffs, ad_mats)) if k else np.zeros((dim_g, dim_g))
        eigvals = np.linalg.eigvals(m)
        groups_ = _cluster(eigvals, tol)
        if _unambiguous(groups_, eigvals, tol):
            clusters = [(mu, cnt) for mu, cnt in groups_]
            break
    if clusters is None:
        raise OracleError("eigenvalue clustering stayed ambiguous after resampling")

    weights: List[NumericWeight] = []
    zero_dim = 0
    spaces: List[Tuple[Tuple[complex, ...], np.ndarray]] = []
    for mu, cnt in clusters:
        sub = _eigenspace(m, mu, cnt)
        lam = []
        for ad in ad_mats:
            proj = sub.conj().T @ (ad @ sub)
            lam.append(complex(np.trace(proj) / cnt))
        value = tuple(lam)
        if all(abs(v) <= 10 * tol for v in value):
            zero_dim += cnt
            continue
        sig = None
        if fm.T is not None or fm.s is not None:
            mats = [(basis.T @ sub[:, i]).reshape(n, n) for i in range(cnt)]
            gram = np.zeros((cnt, cnt), dtype=complex)
            for a in range(cnt):
                sa = fm.sigma(mats[a])
                for b in range(cnt):
                    gram[a, b] = np.trace(sa @ mats[b])
            herm_res = np.abs(gram - gram.conj().T).max()
            if herm_res > 1e-8:
                raise OracleError(f"weight Gram is not Hermitian ({herm_res})")
            ev = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
            scale = max(1.0, np.abs(ev).max())
            pos = int((ev > 1e-8 * scale).sum())
            neg = int((ev < -1e-8 * scale).sum())
            sig = (pos, neg, cnt - pos - neg)
        weights.append(NumericWeight(value, cnt, sig))
        spaces.append((value, basis.T @ sub))

    sigma_ok = True
    if fm.T is not None or fm.s is not None:
        sigma_ok = _check_sigma_equivariance(fm, n, spaces, tol)

    standard = _standard_weights(system, fm, tol)
    return NumericRootReport(standard, weights, dim_g, zero_dim, sigma_ok)


def _cluster(values: np.ndarray, tol: float):
    order = sorted(values, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    groups_: List[List[complex]] = []
    for v in order:
        for g in groups_:
            if abs(v - g[0]) < tol * 10:
                g.append(v)
                break
        else:
            groups_.append([v])
    return [(sum(g) / len(g), len(g)) for g in groups_]


def _unambiguous(groups_, eigvals, tol: float) -> bool:
    mus = [mu for mu, _ in groups_]
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            if abs(mus[i] - mus[j]) < 100 * tol:
                return False
    return True


def _eigenspace(m: np.ndarray, mu: complex, cnt: int) -> np.ndarray:
    a = m - mu * np.eye(m.shape[0])
    _, sv, vh = np.linalg.svd(a)
    vecs = vh[-cnt:, :].conj().T
    q, _ = np.linalg.qr(vecs)
    return q


def _check_sigma_equivariance(fm: FloatModel, n: int, spaces, tol: float) -> bool:
    """sigma maps the space of weight lambda onto the space of conj(lambda)."""
    for value, mats_flat in spaces:
        target_value = tuple(np.conj(v) for v in value)
        target = None
        for v2, m2 in spaces:
            if all(abs(a - b) < 100 * tol for a, b in zip(v2, target_value)):
                target = m2
                break
        if target is None:
            return False
        q, _ = np.linalg.qr(target)
        proj = q @ q.conj().T
        for i in range(mats_flat.shape[1]):
            x = mats_flat[:, i].reshape(n, n)
            sx = fm.sigma(x).reshape(-1)
            res = np.linalg.norm(sx - proj @ sx) / max(1.0, np.linalg.norm(sx))
            if res > 1e-7:
                return False
    return True


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
        if gram is not None and np.abs(gram - gram.conj().T).max() < 1e-8:
            ev = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
            scale = max(1.0, float(np.abs(ev).max()) if len(ev) else 1.0)
            pos = int((ev > 1e-8 * scale).sum())
            neg = int((ev < -1e-8 * scale).sum())
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
