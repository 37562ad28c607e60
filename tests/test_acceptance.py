"""Acceptance suite: one test per criterion, one visible pass/fail line each.

Tolerances and bounds are pinned here and nowhere else:
  1. induced-form signatures, exact equality, all n <= 6, |s| <= n,
     s = n (mod 2), under 5 s;
  2. symbolic vs numeric weight reports, >= 100 randomized scenarios per
     family at ambient dimension <= 12, clustering tolerance 1e-9, 100%
     agreement, under 2 min;
  3. dimension audits, exact, on every synthesized instance;
  4. classification sweeps (SU p+q<=6, SO p+q<=8, Sp(2m,R) 2m<=8,
     SO*(2n) 2n<=12, SL(n,R)/SL(m,H) n<=8, Sp(p,q) 2(p+q)<=8) reproduce the
     rigid list with no false positives or negatives, under 10 min; the SU
     and SO* lists equal the theorem's, predicted from block kinds,
     signatures and decorations, and the SU list is closed under
     (p,q) -> (q,p); the same holds for SU p+q<=8, SO*(2n) 2n<=14,
     Sp(p,q) 2(p+q)<=10 and SO(p,q) p+q<=10, also under 10 min, where every
     assignment over every configuration's decoration targets is classified;
  5. 1000 random balancedness instances (k <= 5, <= 12 vectors, entries with
     numerator and denominator <= 9): every certificate re-verifies and the
     verdict matches the support-set enumeration, 100%;
  6. embedding checks pass exactly (float residual tolerance 1e-12);
  7. Toledo arithmetic laws, exhaustive over small generated cases, plus
     Milnor-Wood rejection;
  8. every forced status in the criterion-4 sweeps carries a known rule tag.
"""

import hashlib
import itertools
import json
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from liebalance import blocks, groups, sweep
from liebalance.balance import (BalancednessInstance, is_balanced,
                                is_balanced_bruteforce)
from liebalance.blocks import ScenarioError
from liebalance.exact import GaussianRational, ZERO, signature_of
from liebalance.groups import Family
from liebalance.oracle import oracle_check, synthesize_model, brute_force_roots
from liebalance.randomgen import random_scenario
from liebalance.roots import root_system
from liebalance.sweep import _configurations, bk_desc, run_sweep
from liebalance.appendix import verify_appendix_embeddings
from liebalance.toledo import (ALL_TAGS, Status, SurfaceData, ToledoData,
                               milnor_wood_bound, toledo_conjugate,
                               toledo_direct_sum, toledo_hom_with_unitary)

_SWEEP_CACHE = {}


def _announce(capsys, line: str):
    with capsys.disabled():
        print(line, flush=True)


def _induced_gram(entries_diag, basis):
    """Exact Gram of (b, b') -> Trace(conj(b)^T D^{-1} b' D^{-1}) on a basis
    of bilinear forms, D = diag(entries). Expanding the trace, this is the
    entrywise sum of conj(b[j][i]) b'[j][i] / (d_i d_j)."""
    n = len(entries_diag)
    dinv = [Fraction(1) / e for e in entries_diag]
    supports = []
    for a in basis:
        supports.append({(j, i): a[j][i] for j in range(n) for i in range(n)
                         if not a[j][i].is_zero()})
    gram = []
    for sa in supports:
        row = []
        for sb in supports:
            tr = ZERO
            for (j, i), x in sa.items():
                y = sb.get((j, i))
                if y is not None:
                    tr = tr + x.conjugate() * y * GaussianRational(dinv[i] * dinv[j])
            row.append(tr)
        gram.append(row)
    return gram


def test_criterion_1_signature_formulas(capsys):
    t0 = time.time()
    checked = 0
    for n in range(1, 7):
        for s in range(-n, n + 1):
            if (n - s) % 2:
                continue
            p = (n + s) // 2
            diag = [Fraction(1)] * p + [Fraction(-1)] * (n - p)

            def e(i, j):
                m = [[ZERO] * n for _ in range(n)]
                m[i][j] = GaussianRational(1)
                return m

            full = [e(i, j) for i in range(n) for j in range(n)]
            sym, alt = [], []
            for i in range(n):
                for j in range(i, n):
                    m = e(i, j)
                    if i != j:
                        m2 = e(j, i)
                        sym.append([[m[a][b] + m2[a][b] for b in range(n)]
                                    for a in range(n)])
                        alt.append([[m[a][b] - m2[a][b] for b in range(n)]
                                    for a in range(n)])
                    else:
                        sym.append(m)
            got_full = signature_of(_induced_gram(diag, full))
            got_sym = signature_of(_induced_gram(diag, sym))
            assert got_full.value == s * s and got_full.null == 0
            assert got_sym.value == (s * s + n) // 2 and got_sym.null == 0
            if alt:
                got_alt = signature_of(_induced_gram(diag, alt))
                assert got_alt.value == (s * s - n) // 2 and got_alt.null == 0
            checked += 1
    dt = time.time() - t0
    assert dt < 5.0, f"took {dt:.1f}s"
    _announce(capsys, f"ACCEPTANCE 1 PASS  induced-form signatures exact for "
                      f"{checked} (n, s) pairs in {dt:.2f}s")


def test_criterion_2_and_3_oracle_equivalence_and_audits(capsys):
    t0 = time.time()
    rng = random.Random(20240817)
    per_family = 100
    total = 0
    for fam in Family:
        for _ in range(per_family):
            spec, bl = random_scenario(fam, rng, cap=12)
            problems = oracle_check(root_system(spec, bl), seed=rng.randint(0, 10 ** 6),
                                    tol=1e-9, cap=12)
            assert problems == [], (spec.describe(), problems[:4])
            total += 1
    dt = time.time() - t0
    assert dt < 120.0, f"took {dt:.1f}s"
    _announce(capsys, f"ACCEPTANCE 2 PASS  oracle agreement on {total} randomized "
                      f"scenarios ({per_family} per family) in {dt:.1f}s")
    # the dimension audit runs inside every root_system() call above (it
    # raises on mismatch), and brute_force_roots checks it numerically; spot
    # re-check explicitly here
    rng2 = random.Random(7)
    audited = 0
    for fam in Family:
        for _ in range(5):
            spec, bl = random_scenario(fam, rng2, cap=12)
            sysr = root_system(spec, bl)
            fm = synthesize_model(sysr)
            rep = brute_force_roots(fm, seed=3)
            total_dim, expect = sysr.dim_audit()
            assert total_dim == expect == spec.dim_complexified
            assert rep.zero_dim + sum(w.dim for w in rep.adjoint) == expect
            audited += 1
    _announce(capsys, f"ACCEPTANCE 3 PASS  dimension audits exact on {audited} "
                      f"synthesized instances")


def _sweeps():
    if not _SWEEP_CACHE:
        plan = [(Family.SU, 6), (Family.SO, 8), (Family.SP_R, 8),
                (Family.SO_STAR, 12), (Family.SL_R, 8), (Family.SL_H, 8),
                (Family.SP, 8)]
        t0 = time.time()
        for fam, bound in plan:
            _SWEEP_CACHE[fam] = run_sweep(fam, bound)
        _SWEEP_CACHE["elapsed"] = time.time() - t0
    return _SWEEP_CACHE


def test_criterion_4_classification_sweeps(capsys):
    sweeps = _sweeps()
    dt = sweeps["elapsed"]
    assert dt < 600.0, f"took {dt:.1f}s"
    lines = []
    for fam, res in sweeps.items():
        if fam == "elapsed":
            continue
        assert res.ok, (fam, res.mismatches[:4])
        rigid_groups = sorted({r["group"] for r in res.rigid})
        lines.append(f"{res.family.value}<=bound {res.bound}: {res.runs} runs, "
                     f"rigid in {rigid_groups or 'none'}")
    su = sweeps[Family.SU]
    assert all(r["descriptor"].startswith("S(U(") for r in su.rigid)
    assert {r["group"] for r in su.rigid} == {
        "SU(1,2)", "SU(2,1)", "SU(1,3)", "SU(3,1)", "SU(1,4)", "SU(4,1)",
        "SU(1,5)", "SU(5,1)", "SU(2,3)", "SU(3,2)", "SU(2,4)", "SU(4,2)"}
    st = sweeps[Family.SO_STAR]
    assert {r["group"] for r in st.rigid} == {"SO*(6)", "SO*(10)"}
    assert all(r["descriptor"] in ("SO*(4) x SO(2)", "SO*(8) x SO(2)")
               for r in st.rigid)
    for fam in (Family.SO, Family.SP_R, Family.SL_R, Family.SL_H, Family.SP):
        assert sweeps[fam].rigid == []
    _announce(capsys, f"ACCEPTANCE 4 PASS  sweeps reproduce the rigid "
                      f"classification in {dt:.1f}s: " + "; ".join(lines))


# (configurations, decorated runs, rigid runs) of each acceptance sweep
SWEEP_COUNTS = {
    Family.SU: (349, 587, 68), Family.SO: (547, 791, 0), Family.SP_R: (191, 389, 0),
    Family.SO_STAR: (748, 1996, 24), Family.SL_R: (136, 136, 0),
    Family.SL_H: (37, 37, 0), Family.SP: (186, 262, 0),
}


# sha256 of each acceptance sweep's rigid list, entries sorted by their JSON
_NO_RIGID = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
SWEEP_RIGID_DIGESTS = {
    Family.SU: "5c41424d1ed88fea1f2493f5af9368da6f5c1514aac855023da0c5777c2a2c83",
    Family.SO_STAR: "74b521530556e6732445cd985831f147a8a8f9d542d092d6487484c25f054400",
    Family.SO: _NO_RIGID, Family.SP_R: _NO_RIGID, Family.SL_R: _NO_RIGID,
    Family.SL_H: _NO_RIGID, Family.SP: _NO_RIGID,
}


def _rigid_digest(rigid) -> str:
    entries = sorted(rigid, key=lambda r: json.dumps(r, sort_keys=True))
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()


def test_criterion_4_sweeps_classify_every_configuration_they_enumerate():
    for fam, res in _sweeps().items():
        if fam == "elapsed":
            continue
        assert res.configurations == len(_configurations(fam, res.bound)), fam
        assert (res.configurations, res.runs, len(res.rigid)) == SWEEP_COUNTS[fam], fam
        assert _rigid_digest(res.rigid) == SWEEP_RIGID_DIGESTS[fam], fam


def _entry_key(entry):
    return entry["group"], tuple(entry["blocks"]), tuple(sorted(entry["decorations"]))


def _predicted_rigid(family, bound):
    """The rigid list the theorem predicts for a sweep, read from block kinds,
    signatures and decorations alone. A surface group is rigid only when it
    is maximal in S(U(p,p) x U(q-p)) in SU(p,q), p != q, or in
    SO*(2m-2) x SO(2) in SO*(2m), m odd: the blocks of vanishing signature
    carry the maximal part, all with one Toledo sign (the invariant adds over
    a direct sum), and the rest is one compact factor."""
    statuses = (Status.NON_MAXIMAL, Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE)
    maximal = {Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE}
    predicted = set()
    for bl in _configurations(family, bound):
        spec = blocks.spec_for(family, bl)
        # the sweep decorates one weight of each vanishing block
        targets = [("0" if b.kind == "zero" else
                    f"{b.label}:il" if b.kind == "sesq_self" else f"{b.label}:+l")
                   for b in bl if b.sig is not None and b.sig.is_vanishing()]
        definite = [b for b in bl if b.sig is not None and b.sig.is_definite()]
        vanishing = [b for b in bl if b.sig is not None and b.sig.is_vanishing()]
        if family == Family.SU:
            shape = (all(b.kind == "sesq_self" for b in bl)
                     and len(definite) + len(vanishing) == len(bl)
                     and len({b.sig.pos > 0 for b in definite}) == 1
                     and len(vanishing) >= 1)
        elif family == Family.SO_STAR:
            shape = (spec.m % 2 == 1
                     and len(definite) == 1 and definite[0].kind == "imag_pair"
                     and definite[0].dim == 1
                     and all(b.kind in ("imag_pair", "zero") for b in vanishing)
                     and len(vanishing) == len(bl) - 1 >= 1)
        else:
            shape = False   # no rigid data outside SU and SO*
        for assignment in itertools.product(statuses, repeat=len(targets)):
            if shape and len(set(assignment)) == 1 and assignment[0] in maximal:
                predicted.add((spec.describe(), tuple(bk_desc(b) for b in bl),
                               tuple(sorted(f"{t}={st.value}"
                                            for t, st in zip(targets, assignment)))))
    return predicted


def _assert_rigid_list_is_the_theorems(res):
    found = {_entry_key(r) for r in res.rigid}
    assert len(found) == len(res.rigid), res.family
    predicted = _predicted_rigid(res.family, res.bound)
    assert found - predicted == set(), (res.family, sorted(found - predicted)[:4])
    assert predicted - found == set(), (res.family, sorted(predicted - found)[:4])


def test_criterion_4_rigid_lists_are_the_theorems():
    sweeps = _sweeps()
    for fam in (Family.SU, Family.SO_STAR):
        _assert_rigid_list_is_the_theorems(sweeps[fam])


_BLOCK_DESC = re.compile(r"(\w+)\(d=(\d+),r=(\d+),sig=\((\d+),(\d+)\)\)")


def _label_free(entry, swap):
    """An SU rigid entry as (p, q, multiset of (block, status on it)), with
    p and q and every signature swapped, and the sign of every maximal
    status flipped, when swap is set."""
    p, q = map(int, entry["group"][3:-1].split(","))
    status = {}
    for deco in entry["decorations"]:
        target, value = deco.split("=")
        status[int(target[1:target.index(":")])] = Status(value)
    rows = []
    for i, desc in enumerate(entry["blocks"]):
        kind, d, r, a, b = _BLOCK_DESC.fullmatch(desc).groups()
        st = status.get(i)
        if swap:
            a, b, st = b, a, st and st.flip()
        rows.append((kind, d, r, a, b, st and st.value))
    if swap:
        p, q = q, p
    return p, q, tuple(sorted(rows, key=str))


def _assert_symmetric_under_p_q_swap(rigid):
    entries = {_label_free(r, swap=False) for r in rigid}
    assert len(entries) == len(rigid)
    assert {_label_free(r, swap=True) for r in rigid} == entries


def test_criterion_4_su_rigid_list_is_symmetric_under_p_q_swap():
    _assert_symmetric_under_p_q_swap(_sweeps()[Family.SU].rigid)


# (configurations, decorated runs, rigid runs) of the larger sweeps
LARGER_SWEEP_COUNTS = {
    (Family.SU, 8): (1580, 3138, 240), (Family.SO_STAR, 14): (1718, 5068, 52),
    (Family.SP, 10): (496, 740, 0), (Family.SO, 10): (1641, 2529, 0),
}


def test_criterion_4_larger_sweeps_are_the_theorems(capsys, monkeypatch):
    # per sweep, the assignments its configurations offer, three statuses
    # per decoration target, and the most targets any configuration has
    offered, most_targets = {}, {}
    targets_of = sweep._decoration_targets

    def recorded(system):
        targets = targets_of(system)
        family = system.spec.family
        offered[family] = offered.get(family, 0) + 3 ** len(targets)
        most_targets[family] = max(most_targets.get(family, 0), len(targets))
        return targets

    monkeypatch.setattr(sweep, "_decoration_targets", recorded)
    t0 = time.time()
    sweeps = {key: run_sweep(*key) for key in LARGER_SWEEP_COUNTS}
    dt = time.time() - t0
    assert set(most_targets) == {family for family, _ in LARGER_SWEEP_COUNTS}
    assert dt < 600.0, f"took {dt:.1f}s"
    for key, res in sweeps.items():
        assert res.ok, (key, res.mismatches[:4])
        # every assignment over every configuration's targets is classified
        assert res.runs == offered[key[0]], key
        assert res.configurations == len(_configurations(*key)), key
        assert (res.configurations, res.runs, len(res.rigid)) == LARGER_SWEEP_COUNTS[key], key
        _assert_rigid_list_is_the_theorems(res)
    _assert_symmetric_under_p_q_swap(sweeps[Family.SU, 8].rigid)
    _announce(capsys, f"ACCEPTANCE 4 PASS  SU p+q<=8, SO*(2n) 2n<=14, Sp(p,q) "
                      f"2(p+q)<=10 and SO(p,q) p+q<=10 give the theorem's rigid "
                      f"lists in {dt:.1f}s, with at most "
                      f"{max(most_targets.values())} decoration targets each")


def test_criterion_5_certificate_soundness(capsys):
    t0 = time.time()
    rng = random.Random(5150)
    agree = 0
    for _ in range(1000):
        k = rng.randint(1, 5)
        nv = rng.randint(1, 12)
        np_count = rng.randint(0, nv)

        def vec():
            return [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(k)]

        inst = BalancednessInstance.make(
            k, [vec() for _ in range(np_count)],
            [vec() for _ in range(nv - np_count)])
        cert = is_balanced(inst)
        assert cert.verify(inst), inst
        assert cert.balanced == is_balanced_bruteforce(inst), inst
        agree += 1
    dt = time.time() - t0
    _announce(capsys, f"ACCEPTANCE 5 PASS  {agree}/1000 certificates verified and "
                      f"matched the support-set enumeration in {dt:.1f}s")


def test_criterion_6_embedding_checks(capsys):
    rep = verify_appendix_embeddings(seed=0, samples=8)
    failed = [c.name for c in rep.checks if not c.passed]
    assert not failed, failed
    # float residuals of the defining identities stay at the exact-check level
    from liebalance.appendix import (_jprime, quaternion_matrix_complexify,
                                     s_form_matrix, skew_unitary_project,
                                     _random_qmat)
    rng = random.Random(3)
    s = np.array([[complex(x) for x in row] for row in s_form_matrix(2)])
    for _ in range(8):
        x = skew_unitary_project(_random_qmat(2, rng))
        r = np.array([[complex(v) for v in row]
                      for row in quaternion_matrix_complexify(x)])
        res = np.abs(r.conj().T @ s + s @ r).max()
        assert res < 1e-12, res
    qi = np.array([[complex(x) for x in row] for row in _jprime(2)])
    assert np.abs(qi - np.diag([1j, 1j, -1j, -1j])).max() < 1e-12
    _announce(capsys, f"ACCEPTANCE 6 PASS  {len(rep.checks)} embedding checks "
                      f"exact, float residuals < 1e-12")


def test_criterion_7_toledo_arithmetic(capsys):
    statuses = [Status.MAXIMAL_POSITIVE, Status.MAXIMAL_NEGATIVE,
                Status.NON_MAXIMAL, Status.UNKNOWN]
    values = [None, Fraction(0), Fraction(3), Fraction(-2), Fraction(5, 2)]
    cases = 0
    for s1, v1 in itertools.product(statuses, values):
        t1 = ToledoData(s1, v1, rank=1)
        c = toledo_conjugate(t1)
        assert c.status == s1.flip()
        assert c.value == (None if v1 is None else -v1)
        assert toledo_conjugate(c).status == s1
        for s2, v2 in itertools.product(statuses, values):
            t2 = ToledoData(s2, v2, rank=2)
            out = toledo_direct_sum([t1, t2])
            if v1 is not None and v2 is not None:
                assert out.value == v1 + v2
            else:
                assert out.value is None
            assert out.rank == 3
            if Status.UNKNOWN in (s1, s2):
                assert out.status == Status.UNKNOWN
            elif s1 == s2 and s1 in (Status.MAXIMAL_POSITIVE,
                                     Status.MAXIMAL_NEGATIVE):
                assert out.status == s1
            else:
                assert out.status == Status.NON_MAXIMAL
            cases += 1
        for d in (1, 2, 3, 4):
            h = toledo_hom_with_unitary(d, t1)
            assert h.status == s1
            assert h.value == (None if v1 is None else d * v1)
            assert h.rank == d
    # Milnor-Wood bound arithmetic and rejection
    for genus in (2, 3, 5):
        surf = SurfaceData(genus)
        for rank in (1, 2, 3):
            assert milnor_wood_bound(surf, rank) == (2 * genus - 2) * rank
    from liebalance.toledo import Decoration, propagate_constraints
    spec = groups.su(2, 2)
    sysr = root_system(spec, [blocks.sesq_self(2, (1, 1), (2, 0), label="E")])
    bound = milnor_wood_bound(SurfaceData(2), 2)
    with pytest.raises(ScenarioError):
        propagate_constraints(sysr, [Decoration(
            "E:il", Status.MAXIMAL_POSITIVE, Fraction(bound + 1))], SurfaceData(2))
    propagate_constraints(sysr, [Decoration(
        "E:il", Status.MAXIMAL_POSITIVE, Fraction(bound))], SurfaceData(2))
    _announce(capsys, f"ACCEPTANCE 7 PASS  Toledo arithmetic laws over {cases} "
                      f"generated combinations, bound rejection checked")


def test_criterion_8_forcing_tags_audited(capsys):
    sweeps = _sweeps()
    seen_tags = set()
    for fam, res in sweeps.items():
        if fam == "elapsed":
            continue
        assert res.tag_violations == [], res.tag_violations[:5]
    # re-run a slice of the sweeps recording which tags actually fired
    from liebalance.toledo import Decoration, propagate_constraints
    probes = [
        (groups.sl_r(4), [blocks.conj_pair(2, 1)], []),
        (groups.sp_r(4), [blocks.imag_pair(1, 1, (1, 0)),
                          blocks.zero_block(2, (1, 1))], []),
        (groups.su(2, 3), [blocks.sesq_self(1, (0, 1), (1, 0), label="D"),
                           blocks.sesq_self(2, (1, 1), (2, 0), label="E")], []),
        # indefinite against vanishing: the product form vanishes but the
        # definite/vanishing pattern fails, so the pairing rule fires
        # (lemsupq in the unitary family, signiell-1 in the orthogonal ones)
        (groups.su(3, 2), [blocks.sesq_self(3, (2, 1), (1, 0), label="a"),
                           blocks.sesq_self(2, (1, 1), (1, 0), label="b")], []),
        (groups.so(4, 4), [blocks.imag_pair(2, 1, (1, 1), label="a"),
                           blocks.imag_pair(2, 1, (1, 1), label="b")], []),
        (groups.so(4, 2), [blocks.imag_pair(1, 1, (1, 0)),
                           blocks.zero_block(4, (2, 2))],
         [Decoration("0", Status.MAXIMAL_POSITIVE)]),
        (groups.so(2, 4), [blocks.imag_pair(2, 1, (1, 1)),
                           blocks.zero_block(2, (0, 2))], []),
        (groups.so_star(8), [blocks.imag_pair(1, 1, (1, 0)),
                             blocks.zero_block(6, (3, 3))],
         [Decoration("0", Status.MAXIMAL_POSITIVE)]),
    ]
    for spec, bl, decos in probes:
        sysr = root_system(spec, bl)
        prop = propagate_constraints(sysr, decos)
        for p in prop.rules:
            if p.forced_tag is not None:
                assert p.forced_tag in ALL_TAGS, p.forced_tag
                seen_tags.add(p.forced_tag)
    assert {"maxtight", "lemsupq", "signiell-1", "signiell-2", "o22"} <= seen_tags
    _announce(capsys, f"ACCEPTANCE 8 PASS  all forced statuses tagged from "
                      f"{sorted(seen_tags)}; no untagged forcing in sweeps")
