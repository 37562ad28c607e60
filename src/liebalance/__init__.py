"""Exact classification of flexibility for reductive surface-group data in
classical simple Lie groups.

A datum -- the isotypical decomposition of the standard representation under a
reductive subgroup, plus maximality statuses for the surface-group actions on
the weight spaces that support them -- determines the center of the
centralizer, its weights on the standard and adjoint representations, exact
signatures of the sesquilinear forms those weight spaces carry, and finally
whether the center is *balanced*: zero interior to the convex hull of the
maximal-positive imaginary weights plus the span of the rest. Balanced means
the datum deforms to a Zariski-dense representation; the unbalanced data form
exactly two families, split-unitary maximal data inside SU(p,q) with p != q
and the odd SO*(2m) shape.

All classification arithmetic is exact (rationals, Gaussian rationals, exact
linear programming); a floating-point oracle independently re-derives weight
decompositions and signatures from explicit matrix models.
"""

from .balance import BalancednessCertificate, BalancednessInstance, is_balanced
from .blocks import (Block, ScenarioError, cls, conj_pair, dual_pair, imag_pair,
                     quad_pair, real_cls, sesq_pair, sesq_self, split_pair,
                     zero_block)
from .classify import FlexVerdict, InternalConsistencyError, classify
from .exact import GaussianRational, Quaternion, Signature, signature_of
from .groups import (Family, GroupSpec, sl_c, sl_h, sl_r, so, so_c, so_star,
                     sp, sp_c, sp_r, su)
from .roots import AdjointRoot, RootSystem, StandardRoot, root_system
from .toledo import (Decoration, Status, SurfaceData, milnor_wood_bound,
                     propagate_constraints)

__all__ = [
    "BalancednessCertificate", "BalancednessInstance", "is_balanced",
    "Block", "ScenarioError", "cls", "conj_pair", "dual_pair", "imag_pair",
    "quad_pair", "real_cls", "sesq_pair", "sesq_self", "split_pair", "zero_block",
    "FlexVerdict", "InternalConsistencyError", "classify",
    "GaussianRational", "Quaternion", "Signature", "signature_of",
    "Family", "GroupSpec", "sl_c", "sl_h", "sl_r", "so", "so_c", "so_star",
    "sp", "sp_c", "sp_r", "su",
    "AdjointRoot", "RootSystem", "StandardRoot", "root_system",
    "Decoration", "Status", "SurfaceData", "milnor_wood_bound",
    "propagate_constraints",
]

__version__ = "0.1.0"
