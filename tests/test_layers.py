"""The weight geometry works in integers: `roots.py` references none of the
`GaussianRational` row-reduction kernels of `linalg`, so its spanning check
and null space cannot slip back onto Q(i) elimination."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liebalance"
GAUSSIAN_KERNELS = {"rref", "rank", "nullspace", "frac_rank", "frac_nullspace"}


def gaussian_kernels_used(source: str):
    """The `linalg` Q(i) kernels the source references, as attributes of a
    name bound to the module or imported from it, in source order."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "linalg":
                found += [a.name for a in node.names if a.name in GAUSSIAN_KERNELS]
            else:
                modules |= {a.asname or a.name for a in node.names if a.name == "linalg"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names
                        if a.asname and a.name.split(".")[-1] == "linalg"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in GAUSSIAN_KERNELS \
                and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.append(node.attr)
    return found


def test_the_check_finds_every_way_to_reach_a_kernel():
    source = ("from . import linalg\nfrom . import linalg as la\n"
              "import liebalance.linalg as lg\nfrom .linalg import frac_rank, int_echelon\n"
              "linalg.rref(a); la.nullspace(a); lg.rank(a)\n"
              "linalg.int_echelon(a); other.rref(a)\n")
    assert gaussian_kernels_used(source) == ["frac_rank", "rref", "nullspace", "rank"]


def test_roots_uses_no_gaussian_rational_kernel():
    source = (PACKAGE / "roots.py").read_text(encoding="utf-8")
    assert "linalg.int_echelon" in source and "linalg.int_nullspace" in source
    assert gaussian_kernels_used(source) == []
