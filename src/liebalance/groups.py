"""Classical simple real Lie groups as involution data on a complex ambient group.

Each family fixes the shape of the ambient complex group (special linear,
orthogonal or symplectic), the sign epsilon of the invariant bilinear form when
there is one, and the sign eta with tau^2 = eta*id for the antilinear structure
tau cutting out the real form (eta = +1 for real structures, -1 for
quaternionic ones). SU(p,q) is cut out by the adjoint of a sesquilinear form
instead of a tau.

``FAMILIES`` holds one row per family with all of that structure, and every
property of ``GroupSpec`` reads its row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Tuple


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


# the sign epsilon of each ambient algebra's invariant bilinear form
_EPSILON = {"sl": None, "so": +1, "sp": -1}


@dataclass(frozen=True)
class GroupSpec:
    family: Family
    n: int = 0          # SL_R/SL_C/SO_C: ambient dimension n
    m: int = 0          # SL_H, SP_R(2m), SP_C(2m), SO_STAR(2m)
    p: int = 0          # SU/SO/SP signature
    q: int = 0

    def __post_init__(self):
        least = self._row.min_dim
        if min(self.n, self.m, self.p, self.q) < 0 or self.ambient_dim < least:
            raise ValueError(f"{self.family.value} needs nonnegative parameters "
                             f"and ambient dimension >= {least}")

    @property
    def _row(self) -> FamilyParams:
        return FAMILIES[self.family]

    # -- ambient structure -------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        """Complex dimension of the standard representation."""
        return self._row.scale * (self.n + self.m + self.p + self.q)

    @property
    def epsilon(self) -> Optional[int]:
        """Sign of the invariant bilinear form of the ambient complex group."""
        return self._row.epsilon

    @property
    def eta(self) -> Optional[int]:
        """tau^2 sign; None for complex families and SU."""
        return self._row.eta

    @property
    def is_complex(self) -> bool:
        return self._row.is_complex

    @property
    def is_quaternionic(self) -> bool:
        return self.eta == -1

    @property
    def is_sl_like(self) -> bool:
        return self._row.is_sl_like

    @property
    def is_orthogonal_like(self) -> bool:
        """Whether the ambient group preserves a bilinear form (so or sp)."""
        return self.epsilon is not None

    @property
    def is_compact(self) -> bool:
        """SU, SO and Sp with a definite form; the families with a signature
        (p, q) are exactly these three."""
        return "p" in self._row.keys and (self.p == 0 or self.q == 0)

    @property
    def is_semisimple(self) -> bool:
        """Whether the ambient algebra is semisimple. Of the ten families'
        algebras only so(2), which is abelian, is not."""
        return not (self._row.algebra == "so" and self.ambient_dim == 2)

    @property
    def eta_epsilon(self) -> Optional[int]:
        """Symmetry sign of the sesquilinear form s(v,v') = B(tau v, v') on root
        spaces of the standard representation: +1 symmetric, -1 skew."""
        return self._row.eta_epsilon

    # -- dimensions ---------------------------------------------------------

    @property
    def dim_complexified(self) -> int:
        """Complex dimension of the ambient complex Lie algebra, which equals
        the real dimension of the real form (and plain dim for complex G):
        n^2 - 1 for sl(n), n(n - epsilon)/2 for so(n) and sp(n)."""
        n = self.ambient_dim
        if self.is_sl_like:
            return n * n - 1
        return n * (n - self.epsilon) // 2

    @property
    def dim_real(self) -> int:
        """Real dimension of G (the genus bound uses this)."""
        if self.is_complex:
            return 2 * self.dim_complexified
        return self.dim_complexified

    def genus_bound(self) -> int:
        return 2 * self.dim_real ** 2

    def describe(self) -> str:
        return self._row.name.format(n=self.ambient_dim, m=self.m, p=self.p, q=self.q)


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
    scale: int                       # ambient dimension per unit of n, m or p + q
    algebra: str                     # the ambient complex algebra: "sl", "so" or "sp"
    eta: Optional[int]               # tau^2 = eta; None for SU and the complex groups
    is_complex: bool
    name: str                        # describe() template over n (ambient), m, p, q
    kinds: FrozenSet[str]            # the block kinds its scenarios may use

    # the signs depend on the family alone; `GroupSpec` and the weight
    # geometry of `roots` both read them here

    @property
    def epsilon(self) -> Optional[int]:
        return _EPSILON[self.algebra]

    @property
    def eta_epsilon(self) -> Optional[int]:
        if self.epsilon is None or self.eta is None:
            return None
        return self.epsilon * self.eta

    @property
    def is_sl_like(self) -> bool:
        return self.algebra == "sl"


_SL_KINDS = frozenset({"real_cls", "conj_pair"})
_REAL_FORM_KINDS = frozenset({"imag_pair", "split_pair", "quad_pair", "zero"})
_COMPLEX_KINDS = frozenset({"dual_pair", "zero"})

# A group sets only its own family's n, m or (p, q), through the constructors
# above. SO(p,q) with p+q = 2 and SO*(2) are abelian, so SO starts at 3 and
# SO* at 4. SO(2,C) is abelian too but stays allowed for the numeric oracle;
# the classification layer rejects its data with a nonzero center.
FAMILIES: Dict[Family, FamilyParams] = {
    Family.SL_R: FamilyParams(sl_r, ("n",), 2, 1, "sl", +1, False, "SL({n},R)", _SL_KINDS),
    Family.SL_C: FamilyParams(sl_c, ("n",), 2, 1, "sl", None, True, "SL({n},C)",
                              frozenset({"cls"})),
    Family.SL_H: FamilyParams(sl_h, ("m",), 2, 2, "sl", -1, False, "SL({m},H)", _SL_KINDS),
    Family.SU: FamilyParams(su, ("p", "q"), 2, 1, "sl", None, False, "SU({p},{q})",
                            frozenset({"sesq_self", "sesq_pair"})),
    Family.SO: FamilyParams(so, ("p", "q"), 3, 1, "so", +1, False, "SO({p},{q})",
                            _REAL_FORM_KINDS),
    Family.SP_R: FamilyParams(sp_r, ("n",), 2, 2, "sp", +1, False, "Sp({n},R)",
                              _REAL_FORM_KINDS),
    Family.SP: FamilyParams(sp, ("p", "q"), 2, 2, "sp", -1, False, "Sp({p},{q})",
                            _REAL_FORM_KINDS),
    Family.SO_STAR: FamilyParams(so_star, ("n",), 4, 2, "so", -1, False, "SO*({n})",
                                 _REAL_FORM_KINDS),
    Family.SO_C: FamilyParams(so_c, ("n",), 2, 1, "so", None, True, "SO({n},C)",
                              _COMPLEX_KINDS),
    Family.SP_C: FamilyParams(sp_c, ("n",), 2, 2, "sp", None, True, "Sp({n},C)",
                              _COMPLEX_KINDS),
}
