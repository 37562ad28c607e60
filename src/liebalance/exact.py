"""Exact scalar arithmetic: Gaussian rationals, rational quaternions, signatures.

Everything here is exact. Scalars are built on ``fractions.Fraction`` (arbitrary
precision integers underneath, which matters because congruence diagonalization
inflates numerators), and no routine in this module ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rat = Union[int, Fraction]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class GaussianRational:
    """An element re + im*i of Q(i)."""

    re: Fraction
    im: Fraction

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, complex):
            raise TypeError("refusing to build an exact scalar from a float/complex")
        return GaussianRational(_frac(x))

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other):
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.of(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.of(other) * self.inverse()

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """re^2 + im^2; zero iff the element is zero."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        try:
            o = GaussianRational.of(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


QI = GaussianRational
ZERO = QI(0)
ONE = QI(1)
I = QI(0, 1)


@dataclass(frozen=True)
class Quaternion:
    """A rational quaternion in split form a + j*b with a, b in Q(i).

    Multiplication uses j*z = conj(z)*j, so
    (a + j b)(c + j d) = (a c - conj(b) d) + j (conj(a) d + b c).
    """

    a: GaussianRational
    b: GaussianRational

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", GaussianRational.of(a))
        object.__setattr__(self, "b", GaussianRational.of(b))

    @staticmethod
    def of(x) -> "Quaternion":
        if isinstance(x, Quaternion):
            return x
        return Quaternion(GaussianRational.of(x))

    @property
    def complex_part(self) -> GaussianRational:
        return self.a

    def __add__(self, other):
        o = Quaternion.of(other)
        return Quaternion(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Quaternion(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-Quaternion.of(other))

    def __rsub__(self, other):
        return Quaternion.of(other) + (-self)

    def __mul__(self, other):
        o = Quaternion.of(other)
        return Quaternion(self.a * o.a - self.b.conjugate() * o.b,
                          self.a.conjugate() * o.b + self.b * o.a)

    def __rmul__(self, other):
        return Quaternion.of(other) * self

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a.conjugate(), -self.b)

    def norm(self) -> Fraction:
        return self.a.norm() + self.b.norm()

    def inverse(self) -> "Quaternion":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in the quaternions")
        c = self.conjugate()
        return Quaternion(c.a / n, c.b / n)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __eq__(self, other):
        try:
            o = Quaternion.of(other)
        except TypeError:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"({self.a} + j*{self.b})"


@dataclass(frozen=True)
class Signature:
    """Inertia counts (pos, neg, null) of a Hermitian form.

    ``value`` is pos - neg; "vanishing" means pos == neg, "definite" means one
    of pos, neg is zero while the form is nondegenerate.
    """

    pos: int
    neg: int
    null: int = 0

    @property
    def dim(self) -> int:
        return self.pos + self.neg + self.null

    @property
    def value(self) -> int:
        return self.pos - self.neg

    def is_vanishing(self) -> bool:
        return self.pos == self.neg

    def is_definite(self) -> bool:
        return self.null == 0 and (self.pos == 0 or self.neg == 0) and self.dim > 0

    def flip(self) -> "Signature":
        return Signature(self.neg, self.pos, self.null)

    def __add__(self, other: "Signature") -> "Signature":
        return Signature(self.pos + other.pos, self.neg + other.neg,
                         self.null + other.null)

    def __repr__(self):
        if self.null:
            return f"({self.pos},{self.neg};null={self.null})"
        return f"({self.pos},{self.neg})"


Matrix = list  # list of list of GaussianRational


def gmat(rows: Iterable[Iterable]) -> Matrix:
    return [[GaussianRational.of(x) for x in row] for row in rows]


def is_hermitian(m: Matrix) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    for i in range(n):
        if not m[i][i].is_real():
            return False
        for j in range(i + 1, n):
            if m[i][j] != m[j][i].conjugate():
                return False
    return True


def signature_of(m: Matrix) -> Signature:
    """Signature of a Hermitian matrix over Q(i) by congruence diagonalization.

    Symmetric Gaussian elimination: pivot on a nonzero diagonal entry when one
    exists; when every diagonal entry of the remaining block vanishes, a
    hyperbolic move x_i -> x_i + conj(m_ij) x_j manufactures the positive pivot
    2|m_ij|^2 without leaving congruence class. Sylvester's law makes the
    result independent of the eliminations performed.
    """
    n = len(m)
    if not is_hermitian(m):
        raise ValueError("signature_of requires a Hermitian matrix")
    a = [row[:] for row in m]
    pos = neg = null = 0
    live = list(range(n))  # indices not yet consumed
    while live:
        piv = next((i for i in live if not a[i][i].is_zero()), None)
        if piv is None:
            hyp = None
            for i in live:
                for j in live:
                    if j != i and not a[i][j].is_zero():
                        hyp = (i, j)
                        break
                if hyp:
                    break
            if hyp is None:
                null += len(live)
                break
            i, j = hyp
            c = a[i][j].conjugate()
            # row/col operation: e_i <- e_i + c e_j keeps the matrix Hermitian
            for k in range(n):
                a[i][k] = a[i][k] + c.conjugate() * a[j][k]
            for k in range(n):
                a[k][i] = a[k][i] + c * a[k][j]
            piv = i
        d = a[piv][piv]
        assert d.is_real()
        if d.re > 0:
            pos += 1
        else:
            neg += 1
        live.remove(piv)
        for i in live:
            if a[i][piv].is_zero():
                continue
            f = a[i][piv] / d
            for k in range(n):
                a[i][k] = a[i][k] - f * a[piv][k]
            fc = f.conjugate()
            for k in range(n):
                a[k][i] = a[k][i] - fc * a[k][piv]
    return Signature(pos, neg, null)
