"""Exact linear algebra over Q and Q(i): rank, RREF, null spaces, and the
matrix helpers (products, transposes, conjugates) every exact module shares.

Row reduction on small matrices (ambient dimensions stay in the tens), with
deterministic pivot choice so downstream coordinate conventions are
reproducible byte for byte. Each elimination step touches only the pivot
row's nonzero columns, which is most of the saving on the sparse sweep data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exact import GaussianRational, ZERO, ONE, gmat


def rref(rows) -> Tuple[List[List[GaussianRational]], List[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    a = gmat(rows)
    if not a:
        return a, []
    nrows, ncols = len(a), len(a[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not a[i][c].is_zero()), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        # rows at and below r vanish left of c, and a zero entry of the pivot
        # row changes nothing: work on its support only
        support = [k for k in range(c, ncols) if not prow[k].is_zero()]
        inv = prow[c].inverse()
        for k in support:
            prow[k] = prow[k] * inv
        for i in range(nrows):
            f = a[i][c]
            if i != r and not f.is_zero():
                row = a[i]
                for k in support:
                    row[k] = row[k] - f * prow[k]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def nullspace(rows, ncols: Optional[int] = None) -> List[List[GaussianRational]]:
    """Basis of {x : A x = 0}, one vector per free column, deterministic."""
    a = gmat(rows)
    if not a:
        if ncols is None:
            raise ValueError("nullspace of an empty system needs ncols")
        return identity(ncols)
    ncols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def matmul(a, b):
    a = gmat(a)
    b = gmat(b)
    n, m = len(a), len(b[0])
    out = [[ZERO] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        for l, x in enumerate(row):
            if x.is_zero():
                continue
            brow = b[l]
            orow = out[i]
            for j in range(m):
                y = brow[j]
                if not y.is_zero():
                    orow[j] = orow[j] + x * y
    return out


def mat_vec(a, v):
    a = gmat(a)
    v = [GaussianRational.of(x) for x in v]
    out = [ZERO] * len(a)
    for i, row in enumerate(a):
        acc = ZERO
        for j, x in enumerate(row):
            if not x.is_zero() and not v[j].is_zero():
                acc = acc + x * v[j]
        out[i] = acc
    return out


def transpose(a):
    return [[a[j][i] for j in range(len(a))] for i in range(len(a[0]))]


def conjugate(a):
    """Entrywise complex conjugate."""
    return [[x.conjugate() for x in row] for row in gmat(a)]


def conj_transpose(a):
    return transpose(conjugate(a))


def zeros(n):
    return [[ZERO] * n for _ in range(n)]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def frac_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return rank([[GaussianRational.of(x) for x in row] for row in rows])


def frac_nullspace(rows: Sequence[Sequence[Fraction]], ncols=None) -> List[List[Fraction]]:
    out = nullspace([[GaussianRational.of(x) for x in row] for row in rows], ncols)
    return [[x.re for x in v] for v in out]
