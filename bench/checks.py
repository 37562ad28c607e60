"""Independent checks of the program's outputs.

Nothing here calls into liebalance: ranks, certificates, dimensions and the
expected rigid list are recomputed from first principles with the standard
library's Fraction, so a fault in the program's exact kernel cannot hide
itself by also breaking the check.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

_GROUP = re.compile(r"^(SL|SU|SO\*|SO|Sp)\((\d+)(?:,(\d+|R|C|H))?\)$")


def frac_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by plain Gaussian elimination."""
    a = [list(r) for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][c]
        for i in range(rank + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / p
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def certificate_problem(k: int, p_vectors: Sequence[Sequence[Fraction]],
                        n_vectors: Sequence[Sequence[Fraction]], balanced: bool,
                        coefficients=None, n_coefficients=None, spanning=None,
                        functional=None) -> Optional[str]:
    """Why a balancedness witness fails to prove its verdict, or None.

    Balanced: strictly positive coefficients on P and free ones on N sum the
    vectors to 0, and the named vectors span Q^k. Unbalanced: a nonzero
    functional vanishes on N and is nonnegative on P.
    """
    if balanced:
        if k == 0:
            return None
        if coefficients is None or n_coefficients is None or spanning is None:
            return "balanced witness is incomplete"
        if len(coefficients) != len(p_vectors) or len(n_coefficients) != len(n_vectors):
            return "balanced witness has the wrong number of coefficients"
        if any(c <= 0 for c in coefficients):
            return "balanced witness has a coefficient <= 0 on P"
        total = [Fraction(0)] * k
        for c, v in list(zip(coefficients, p_vectors)) + list(zip(n_coefficients, n_vectors)):
            for i in range(k):
                total[i] += c * v[i]
        if any(x != 0 for x in total):
            return "balanced witness does not sum to 0"
        chosen = []
        for tag, idx in spanning:
            vecs = p_vectors if tag == "p" else n_vectors
            if tag not in ("p", "n") or not 0 <= idx < len(vecs):
                return f"spanning index {tag}{idx} is out of range"
            chosen.append(vecs[idx])
        if frac_rank(chosen) != k:
            return "balanced witness names vectors that do not span"
        return None
    if k == 0:
        return "an ambient space of dimension 0 is always balanced"
    if functional is None or len(functional) != k or all(x == 0 for x in functional):
        return "unbalanced witness has no nonzero functional"
    if any(_dot(functional, v) != 0 for v in n_vectors):
        return "unbalanced functional does not vanish on N"
    if any(_dot(functional, v) < 0 for v in p_vectors):
        return "unbalanced functional is negative on P"
    return None


def parse_group(name: str) -> Tuple[str, int, Optional[str]]:
    """("SU", 5, "2") style triple: family stem, first number, second part."""
    m = _GROUP.match(name)
    if m is None:
        raise ValueError(f"unrecognised group name {name!r}")
    return m.group(1), int(m.group(2)), m.group(3)


def complexified_dim(name: str) -> int:
    """Complex dimension of the complexified Lie algebra, from the group name.

    SL(n,R), SL(n,C), SU(p,q): n^2 - 1 with n the matrix size (2m for SL(m,H));
    SO(p,q), SO(n,C), SO*(2m): n(n-1)/2; Sp(2m,R), Sp(2m,C), Sp(p,q): n(n+1)/2
    with n = 2m or 2(p+q).
    """
    stem, a, b = parse_group(name)
    if stem == "SL":
        n = 2 * a if b == "H" else a
        return n * n - 1
    if stem == "SU":
        n = a + int(b)
        return n * n - 1
    if stem == "SO*":
        return a * (a - 1) // 2
    if stem == "SO":
        n = a if b == "C" else a + int(b)
        return n * (n - 1) // 2
    n = a if b in ("R", "C") else 2 * (a + int(b))
    return n * (n + 1) // 2


def rigid_descriptor(name: str) -> Optional[str]:
    """The theorem's descriptor when the group has rigid data, else None:
    SU(p,q) with p != q, p, q >= 1, and SO*(2m) with m odd, m >= 3."""
    stem, a, b = parse_group(name)
    if stem == "SU":
        p, q = a, int(b)
        if p != q and min(p, q) >= 1:
            m = min(p, q)
            return f"S(U({m},{m}) x U({abs(p - q)}))"
        return None
    if stem == "SO*":
        m = a // 2
        if m % 2 == 1 and m >= 3:
            return f"SO*({2 * m - 2}) x SO(2)"
    return None


def expected_rigid_groups(family: str, bound: int) -> Set[str]:
    """Groups in which a sweep up to ``bound`` must find rigid data."""
    if family == "SU":
        return {f"SU({p},{q})" for p in range(1, bound) for q in range(1, bound)
                if p != q and p + q <= bound}
    if family == "SO_STAR":
        return {f"SO*({2 * m})" for m in range(3, bound // 2 + 1, 2)}
    return set()


def sweep_problems(family: str, bound: int, summary: Dict) -> List[str]:
    """Compare one sweep's outcome with the theorem's rigid list."""
    out = []
    rigid = summary["rigid"]
    found = {g for g, _ in rigid}
    want = expected_rigid_groups(family, bound)
    if found != want:
        out.append(f"{family}<={bound}: rigid groups {sorted(found)}, "
                   f"theorem predicts {sorted(want)}")
    for group, descriptor in rigid:
        if descriptor != rigid_descriptor(group):
            out.append(f"{family}<={bound}: {group} has descriptor {descriptor!r}")
    if summary["tag_violations"]:
        out.append(f"{family}<={bound}: tag violations {summary['tag_violations'][:3]}")
    if summary["mismatches"]:
        out.append(f"{family}<={bound}: mismatches {summary['mismatches'][:3]}")
    if summary["runs"] < 1:
        out.append(f"{family}<={bound}: no decorated classification ran")
    return out


def _fracs(v) -> List[Fraction]:
    return [Fraction(x) for x in v]


def report_problems(report: Dict) -> List[str]:
    """Check one `liebalance check` report against closed forms and the theorem."""
    out = []
    group = report["group"]
    want_dim = complexified_dim(group)
    if report["dim_g"] != want_dim:
        out.append(f"{group}: dim_g {report['dim_g']}, closed form {want_dim}")
    weight_total = report["zero_space_dim"] + sum(r["dim"] for r in report["adjoint_weights"])
    if weight_total != want_dim:
        out.append(f"{group}: weight spaces add up to {weight_total}, closed form {want_dim}")

    verdict = report["verdict"]
    outcome = verdict["outcome"]
    descriptor = rigid_descriptor(group)
    if outcome == "rigid_maximal":
        if descriptor is None:
            out.append(f"{group}: rigid verdict in a group without rigid data")
        elif verdict["descriptor"] != descriptor:
            out.append(f"{group}: descriptor {verdict['descriptor']!r}, theorem gives "
                       f"{descriptor!r}")
    elif outcome == "indeterminate":
        if descriptor is None and verdict["reason"] != "too_many_unknowns":
            out.append(f"{group}: indeterminate although every datum here is flexible")
    elif outcome != "flexible":
        out.append(f"{group}: unknown outcome {outcome!r}")

    bal = report["balance"]
    if "balanced" in bal:
        if bal["balanced"] != (outcome == "flexible"):
            out.append(f"{group}: certificate says balanced={bal['balanced']} "
                       f"for a {outcome} verdict")
        w = bal["witness"]
        problem = certificate_problem(
            bal["ambient_dim"], [_fracs(v) for v in bal["p_vectors"]],
            [_fracs(v) for v in bal["n_vectors"]], bal["balanced"],
            coefficients=_fracs(w["coefficients"]) if "coefficients" in w else None,
            n_coefficients=_fracs(w["n_coefficients"]) if "n_coefficients" in w else None,
            spanning=[tuple(s) for s in w["spanning"]] if "spanning" in w else None,
            functional=_fracs(w["functional"]) if "functional" in w else None)
        if problem:
            out.append(f"{group}: {problem}")
    elif outcome != "indeterminate":
        out.append(f"{group}: {outcome} verdict without a certificate")

    oracle = report.get("oracle")
    if oracle is None or not oracle["checked"]:
        out.append(f"{group}: the oracle did not run")
    elif oracle["problems"]:
        out.append(f"{group}: oracle problems {oracle['problems'][:3]}")
    return out
