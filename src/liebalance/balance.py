"""Balancedness of a torus: exact convex-position test with certificates.

A torus with weight data (P, N) in R^k -- P the imaginary parts of the
adjoint weights carried by maximal positive actions, N the real and imaginary
parts of all weights outside +-P -- is *balanced* when 0 lies in the interior
of conv(P) + span(N), the interior taken in the ambient dual. Concretely:

    balanced  <=>  some strictly positive combination of P lands in span(N)
                   and P together with N spans R^k.

Both directions come with checkable witnesses: strictly positive rational
coefficients plus a spanning subset when balanced, and a nonzero functional
phi with phi(N) = 0, phi >= 0 on P when not (such a phi confines
conv(P) + span(N) to a half space through 0, so 0 cannot be interior).
Feasibility is decided by an exact phase-one simplex with Bland's rule; an
independent brute-force decision over support sets backs it in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg

Vec = Tuple[Fraction, ...]


def _vec(v) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in v)


def _dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _is_zero(v: Vec) -> bool:
    return all(x == 0 for x in v)


@dataclass(frozen=True)
class BalancednessInstance:
    ambient_dim: int
    p_vectors: Tuple[Vec, ...]
    n_vectors: Tuple[Vec, ...]

    @staticmethod
    def make(k: int, p_vectors: Sequence[Sequence], n_vectors: Sequence[Sequence]):
        ps = tuple(_vec(v) for v in p_vectors)
        ns = tuple(_vec(v) for v in n_vectors)
        for v in ps + ns:
            if len(v) != k:
                raise ValueError("vector length does not match the ambient dimension")
        return BalancednessInstance(k, ps, ns)


@dataclass
class BalancednessCertificate:
    balanced: bool
    # balanced: strictly positive coefficients on P and free coefficients on N
    # with sum_i c_i p_i + sum_j d_j n_j = 0, plus a spanning subset of P u N
    coefficients: Optional[List[Fraction]] = None
    n_coefficients: Optional[List[Fraction]] = None
    spanning_indices: Optional[List[Tuple[str, int]]] = None
    # unbalanced: functional with phi(n) = 0, phi(p) >= 0, phi != 0
    functional: Optional[Vec] = None

    def verify(self, inst: BalancednessInstance) -> bool:
        """Re-check the witness by direct rational arithmetic."""
        k = inst.ambient_dim
        if self.balanced:
            if k == 0:
                return True
            if self.coefficients is None or self.n_coefficients is None:
                return False
            if len(self.coefficients) != len(inst.p_vectors):
                return False
            if any(c <= 0 for c in self.coefficients):
                return False
            total = [Fraction(0)] * k
            for c, v in zip(self.coefficients, inst.p_vectors):
                for i in range(k):
                    total[i] += c * v[i]
            for d, v in zip(self.n_coefficients, inst.n_vectors):
                for i in range(k):
                    total[i] += d * v[i]
            if any(x != 0 for x in total):
                return False
            chosen = []
            for tag, idx in self.spanning_indices or []:
                chosen.append((inst.p_vectors if tag == "p" else inst.n_vectors)[idx])
            return linalg.frac_rank([list(v) for v in chosen]) == k
        if k == 0:
            return False
        if self.functional is None or _is_zero(self.functional):
            return False
        for v in inst.n_vectors:
            if _dot(self.functional, v) != 0:
                return False
        for v in inst.p_vectors:
            if _dot(self.functional, v) < 0:
                return False
        return True


class SimplexError(RuntimeError):
    pass


def _phase_one(a_cols: List[Vec], b: Vec):
    """Feasibility of {x >= 0 : A x = b} by phase-one simplex, Bland's rule.

    Returns ("feasible", x) with x per column, or ("infeasible", y) with a
    Farkas certificate y: y.A <= 0 componentwise and y.b > 0.
    """
    m = len(b)
    n = len(a_cols)
    rows = [[a_cols[j][i] for j in range(n)] for i in range(m)]
    # Fractions throughout, so entries the support skips keep the type the
    # updates would give them
    rhs = [Fraction(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    # tableau over columns: original n, then m artificials, then rhs
    t = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]]
         for i in range(m)]
    basis = [n + i for i in range(m)]
    ncols = n + m
    # reduced costs of "minimize the sum of artificials", pivoted with the
    # rows; the last entry is minus the objective value, and basic columns
    # cost exactly 0
    cost = [-sum((t[i][j] for i in range(m)), Fraction(0)) for j in range(n)] + \
        [Fraction(0)] * m + [-sum(rhs, Fraction(0))]

    for _ in range(100000):
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [(t[i][ncols] / t[i][enter], basis[i], i)
                  for i in range(m) if t[i][enter] > 0]
        if not ratios:
            raise SimplexError("phase-one objective unbounded; impossible")
        _, _, leave = min(ratios, key=lambda r: (r[0], r[1]))
        prow = t[leave]
        # a zero entry of the pivot row changes nothing: work on its support
        support = [j for j, x in enumerate(prow) if x != 0]
        piv = prow[enter]
        for j in support:
            prow[j] = prow[j] / piv
        for i in range(m):
            f = t[i][enter]
            if i != leave and f != 0:
                row = t[i]
                for j in support:
                    row[j] = row[j] - f * prow[j]
        f = cost[enter]
        for j in support:
            cost[j] = cost[j] - f * prow[j]
        basis[leave] = enter
    else:
        raise SimplexError("simplex failed to terminate")

    if cost[ncols] == 0:
        x = [Fraction(0)] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = t[i][ncols]
        return "feasible", x
    # Farkas: the optimal dual of the sign-fixed system is 1 minus the
    # reduced cost of each artificial column; undo the row sign fixes
    y = [(-1 if b[i] < 0 else 1) * (1 - cost[n + i]) for i in range(m)]
    return "infeasible", y


def is_balanced(inst: BalancednessInstance) -> BalancednessCertificate:
    """Decide balancedness and return a verified certificate."""
    k = inst.ambient_dim
    if k == 0:
        cert = BalancednessCertificate(True, [], [], [])
        return cert
    labels = [("p", i) for i in range(len(inst.p_vectors))] + \
             [("n", j) for j in range(len(inst.n_vectors))]
    rows = [list(v) for v in inst.p_vectors + inst.n_vectors]
    # with the vectors as columns, the greedy pivots are the first basis in
    # P-then-N order
    pivots = linalg.rref(linalg.transpose(rows))[1] if rows else []
    if len(pivots) < k:
        phi = _orthogonal_functional(rows, k)
        cert = BalancednessCertificate(False, functional=phi)
        if not cert.verify(inst):
            raise AssertionError("unbalanced witness failed its own check")
        return cert

    # feasibility of sum_i (1 + c'_i) p_i + sum_j (d+_j - d-_j) n_j = 0
    cols: List[Vec] = []
    for v in inst.p_vectors:
        cols.append(v)
    for v in inst.n_vectors:
        cols.append(v)
        cols.append(tuple(-x for x in v))
    b = tuple(-sum(v[i] for v in inst.p_vectors) for i in range(k))
    status, payload = _phase_one(cols, b)
    np = len(inst.p_vectors)
    if status == "feasible":
        x = payload
        coeffs = [Fraction(1) + x[i] for i in range(np)]
        ncoeffs = [x[np + 2 * j] - x[np + 2 * j + 1]
                   for j in range(len(inst.n_vectors))]
        cert = BalancednessCertificate(True, coeffs, ncoeffs,
                                       [labels[c] for c in pivots])
        if not cert.verify(inst):
            raise AssertionError("balanced witness failed its own check")
        return cert
    y = payload
    phi = tuple(-v for v in y)
    cert = BalancednessCertificate(False, functional=phi)
    if not cert.verify(inst):
        raise AssertionError("unbalanced witness failed its own check")
    return cert


def _orthogonal_functional(rows: List[List[Fraction]], k: int) -> Vec:
    basis = linalg.frac_nullspace(rows, k)
    if not basis:
        raise AssertionError("rank-deficient system with trivial orthogonal complement")
    return tuple(basis[0])


def is_balanced_bruteforce(inst: BalancednessInstance) -> bool:
    """Independent reference decision over support sets.

    Work in W = (span N)-perp. Unbalanced means the polyhedral cone
    {psi in W : psi(p) >= 0 for all p in P} is nonzero; when P u N spans the
    ambient space that cone is pointed, so it is nonzero exactly when it has
    an extreme ray, and every extreme ray is cut out by dim(W) - 1 linearly
    independent active constraints from P. Enumerating those support sets
    decides the question without any pivoting.
    """
    k = inst.ambient_dim
    if k == 0:
        return True
    vecs = [list(v) for v in inst.p_vectors] + [list(v) for v in inst.n_vectors]
    if not vecs or linalg.frac_rank(vecs) < k:
        return False
    nrows = [list(v) for v in inst.n_vectors if not _is_zero(v)]
    wbasis = linalg.frac_nullspace(nrows, k)
    kp = len(wbasis)
    if kp == 0:
        return True  # N spans everything
    projected = []
    for v in inst.p_vectors:
        row = [_dot(v, tuple(w)) for w in wbasis]
        if any(x != 0 for x in row):
            projected.append(row)
    if not projected:
        return False  # P is trivial on W but W is nonzero

    def admissible(psi) -> bool:
        if all(x == 0 for x in psi):
            return False
        return all(sum((a * b for a, b in zip(row, psi)), Fraction(0)) >= 0
                   for row in projected)

    uniq = []
    seen = set()
    for row in projected:
        key = tuple(row)
        if key not in seen:
            seen.add(key)
            uniq.append(row)
    for subset in itertools.combinations(range(len(uniq)), kp - 1):
        rows = [uniq[i] for i in subset]
        if rows and linalg.frac_rank(rows) != kp - 1:
            continue
        ns = linalg.frac_nullspace(rows, kp)
        if len(ns) != 1:
            continue
        psi = ns[0]
        if admissible(psi) or admissible([-x for x in psi]):
            return False
    return True
