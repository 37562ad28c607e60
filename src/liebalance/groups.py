"""Classical simple real Lie groups as involution data on a complex ambient group.

Each family fixes the shape of the ambient complex group (special linear,
orthogonal or symplectic), the sign epsilon of the invariant bilinear form when
there is one, and the sign eta with tau^2 = eta*id for the antilinear structure
tau cutting out the real form (eta = +1 for real structures, -1 for
quaternionic ones). SU(p,q) is cut out by the adjoint of a sesquilinear form
instead of a tau.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple


class Family(enum.Enum):
    SL_R = "SL_R"          # SL(n, R)
    SL_C = "SL_C"          # SL(n, C)
    SL_H = "SL_H"          # SL(m, H), ambient SL(2m, C)
    SU = "SU"              # SU(p, q)
    SO = "SO"              # SO(p, q)
    SP_R = "SP_R"          # Sp(2m, R)
    SP = "SP"              # Sp(p, q), ambient Sp(2(p+q), C)
    SO_STAR = "SO_STAR"    # SO*(2m), ambient SO(2m, C)
    SO_C = "SO_C"          # SO(n, C)
    SP_C = "SP_C"          # Sp(2m, C)


_SL_LIKE = {Family.SL_R, Family.SL_C, Family.SL_H, Family.SU}
_ORTH_LIKE = {Family.SO, Family.SP_R, Family.SP, Family.SO_STAR,
              Family.SO_C, Family.SP_C}
_COMPLEX = {Family.SL_C, Family.SO_C, Family.SP_C}
_QUATERNIONIC = {Family.SL_H, Family.SP, Family.SO_STAR}


@dataclass(frozen=True)
class GroupSpec:
    family: Family
    n: int = 0          # SL_R/SL_C/SO_C: ambient dimension n
    m: int = 0          # SL_H, SP_R(2m), SP_C(2m), SO_STAR(2m)
    p: int = 0          # SU/SO/SP signature
    q: int = 0

    def __post_init__(self):
        least = FAMILIES[self.family].min_dim
        if min(self.n, self.m, self.p, self.q) < 0 or self.ambient_dim < least:
            raise ValueError(f"{self.family.value} needs nonnegative parameters "
                             f"and ambient dimension >= {least}")

    # -- ambient structure -------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        """Complex dimension of the standard representation."""
        f = self.family
        if f in (Family.SL_R, Family.SL_C, Family.SO_C):
            return self.n
        if f == Family.SL_H:
            return 2 * self.m
        if f in (Family.SP_R, Family.SP_C, Family.SO_STAR):
            return 2 * self.m
        if f in (Family.SU, Family.SO):
            return self.p + self.q
        if f == Family.SP:
            return 2 * (self.p + self.q)
        raise AssertionError

    @property
    def epsilon(self) -> Optional[int]:
        """Sign of the invariant bilinear form of the ambient complex group."""
        if self.family in (Family.SO, Family.SO_C, Family.SO_STAR):
            return +1
        if self.family in (Family.SP_R, Family.SP_C, Family.SP):
            return -1
        return None

    @property
    def eta(self) -> Optional[int]:
        """tau^2 sign; None for complex families and SU."""
        if self.family in (Family.SL_R, Family.SO, Family.SP_R):
            return +1
        if self.family in _QUATERNIONIC:
            return -1
        return None

    @property
    def is_complex(self) -> bool:
        return self.family in _COMPLEX

    @property
    def is_quaternionic(self) -> bool:
        return self.family in _QUATERNIONIC

    @property
    def is_sl_like(self) -> bool:
        return self.family in _SL_LIKE

    @property
    def is_orthogonal_like(self) -> bool:
        return self.family in _ORTH_LIKE

    @property
    def is_compact(self) -> bool:
        if self.family in (Family.SU, Family.SO, Family.SP):
            return self.p == 0 or self.q == 0
        return False

    @property
    def eta_epsilon(self) -> Optional[int]:
        """Symmetry sign of the sesquilinear form s(v,v') = B(tau v, v') on root
        spaces of the standard representation: +1 symmetric, -1 skew."""
        if self.epsilon is None or self.eta is None:
            return None
        return self.epsilon * self.eta

    # -- dimensions ---------------------------------------------------------

    @property
    def dim_complexified(self) -> int:
        """Complex dimension of the ambient complex Lie algebra, which equals
        the real dimension of the real form (and plain dim for complex G)."""
        n = self.ambient_dim
        f = self.family
        if f in _SL_LIKE:
            return n * n - 1
        if f in (Family.SO, Family.SO_C, Family.SO_STAR):
            return n * (n - 1) // 2
        return n * (n + 1) // 2

    @property
    def dim_real(self) -> int:
        """Real dimension of G (the genus bound uses this)."""
        if self.is_complex:
            return 2 * self.dim_complexified
        return self.dim_complexified

    def genus_bound(self) -> int:
        return 2 * self.dim_real ** 2

    def describe(self) -> str:
        f = self.family
        if f == Family.SL_R:
            return f"SL({self.n},R)"
        if f == Family.SL_C:
            return f"SL({self.n},C)"
        if f == Family.SL_H:
            return f"SL({self.m},H)"
        if f == Family.SU:
            return f"SU({self.p},{self.q})"
        if f == Family.SO:
            return f"SO({self.p},{self.q})"
        if f == Family.SP_R:
            return f"Sp({2 * self.m},R)"
        if f == Family.SP:
            return f"Sp({self.p},{self.q})"
        if f == Family.SO_STAR:
            return f"SO*({2 * self.m})"
        if f == Family.SO_C:
            return f"SO({self.n},C)"
        if f == Family.SP_C:
            return f"Sp({2 * self.m},C)"
        raise AssertionError


def sl_r(n: int) -> GroupSpec:
    return GroupSpec(Family.SL_R, n=n)


def sl_c(n: int) -> GroupSpec:
    return GroupSpec(Family.SL_C, n=n)


def sl_h(m: int) -> GroupSpec:
    return GroupSpec(Family.SL_H, m=m)


def su(p: int, q: int) -> GroupSpec:
    return GroupSpec(Family.SU, p=p, q=q)


def so(p: int, q: int) -> GroupSpec:
    return GroupSpec(Family.SO, p=p, q=q)


def sp_r(two_m: int) -> GroupSpec:
    if two_m % 2:
        raise ValueError("Sp(2m,R) needs an even dimension")
    return GroupSpec(Family.SP_R, m=two_m // 2)


def sp(p: int, q: int) -> GroupSpec:
    return GroupSpec(Family.SP, p=p, q=q)


def so_star(two_m: int) -> GroupSpec:
    if two_m % 2:
        raise ValueError("SO*(2m) needs an even dimension")
    return GroupSpec(Family.SO_STAR, m=two_m // 2)


def so_c(n: int) -> GroupSpec:
    return GroupSpec(Family.SO_C, n=n)


def sp_c(two_m: int) -> GroupSpec:
    if two_m % 2:
        raise ValueError("Sp(2m,C) needs an even dimension")
    return GroupSpec(Family.SP_C, m=two_m // 2)


class FamilyParams(NamedTuple):
    make: Callable[..., GroupSpec]   # constructor, called with the keys' values
    keys: Tuple[str, ...]            # scenario-file fields; "n" is the ambient dimension
    min_dim: int                     # smallest ambient dimension the family admits


# SO(p,q) with p+q = 2 and SO*(2) are abelian, so SO starts at 3 and SO* at
# 4. SO(2,C) is abelian too but stays allowed for the numeric oracle; the
# classification layer rejects data whose adjoint weights fail to span.
FAMILIES: Dict[Family, FamilyParams] = {
    Family.SL_R: FamilyParams(sl_r, ("n",), 2),
    Family.SL_C: FamilyParams(sl_c, ("n",), 2),
    Family.SL_H: FamilyParams(sl_h, ("m",), 2),
    Family.SU: FamilyParams(su, ("p", "q"), 2),
    Family.SO: FamilyParams(so, ("p", "q"), 3),
    Family.SP_R: FamilyParams(sp_r, ("n",), 2),
    Family.SP: FamilyParams(sp, ("p", "q"), 2),
    Family.SO_STAR: FamilyParams(so_star, ("n",), 4),
    Family.SO_C: FamilyParams(so_c, ("n",), 2),
    Family.SP_C: FamilyParams(sp_c, ("n",), 2),
}
