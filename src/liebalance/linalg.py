"""Exact linear algebra over Q and Q(i): rank, RREF, null spaces, and the
matrix helpers (products, transposes, conjugates) every exact module shares.

Row reduction on small matrices (ambient dimensions stay in the tens), with
deterministic pivot choice so downstream coordinate conventions are
reproducible byte for byte. Each elimination step touches only the pivot
row's nonzero columns, which is most of the saving on the sparse sweep data.
`int_echelon` reduces integer rows without leaving the integers, and
`int_nullspace` reads `frac_nullspace`'s basis off them the same way.
"""

from __future__ import annotations

import math
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


def _primitive_row(row: List[int]) -> List[int]:
    """The row divided by its gcd, first nonzero entry made positive."""
    g = math.gcd(*row)
    if g == 0:
        return row
    if next(x for x in row if x) < 0:
        g = -g
    return [x // g for x in row]


def int_echelon(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """Row echelon form of integer rows, fraction-free (Bareiss, Math. Comp.
    22, 1968); returns (the nonzero rows, their pivot columns).

    Forward elimination only: each update is p*row - f*prow, with p the
    pivot entry and f the row's entry in the pivot column, and each row is
    then divided by its gcd with its first nonzero entry, its pivot entry,
    made positive. Later rows vanish in every earlier pivot column. The
    pivot columns and the rank are `rref`'s."""
    a = [_primitive_row(list(row)) for row in rows]
    pivots: List[int] = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(r + 1, len(a)):
            f = a[i][c]
            if f:
                a[i] = _primitive_row([p * x - f * y for x, y in zip(a[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def int_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> Tuple[List[List[int]], int]:
    """`frac_nullspace`'s basis of {x : A x = 0} for integer rows, without
    leaving the integers: returns (vectors, den), each vector den times the
    basis vector, den the least common denominator of the basis entries.

    `int_echelon`, then back-substitution from the last pivot up, each
    update p*row - f*prow followed by the gcd division, leaves one
    primitive row per pivot that vanishes in every other pivot column: the
    reduced row echelon form up to a positive scale per row. Its basis
    vector for free column fc has v[fc] = 1 and v[pc] = -row[fc]/row[pc].
    A primitive row's pivot entry has gcd 1 with its entries in the free
    columns, its only other nonzero ones, so den is the least common
    multiple of the pivot entries."""
    red, pivots = int_echelon(rows)
    for r in range(len(red) - 1, 0, -1):
        prow, c = red[r], pivots[r]
        p = prow[c]
        for i in range(r):
            f = red[i][c]
            if f:
                red[i] = _primitive_row([p * x - f * y for x, y in zip(red[i], prow)])
    den = math.lcm(*(row[c] for row, c in zip(red, pivots)))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = den
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] * (den // row[pc])
        basis.append(v)
    return basis, den


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
