import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebalance import linalg
from liebalance.balance import (BalancednessInstance, SimplexError, _phase_one,
                                canonical_key, is_balanced, is_balanced_bruteforce,
                                quotient_key)


def inst(k, ps, ns):
    return BalancednessInstance.make(k, ps, ns)


def test_single_positive_vector_unbalanced():
    cert = is_balanced(inst(1, [[1]], []))
    assert not cert.balanced
    assert cert.functional == (Fraction(1),)
    assert cert.verify(inst(1, [[1]], []))


def test_span_only_balanced():
    cert = is_balanced(inst(1, [], [[1]]))
    assert cert.balanced and cert.verify(inst(1, [], [[1]]))


def test_triangle_is_balanced():
    i = inst(2, [[1, 0], [-1, 1], [0, -1]], [])
    cert = is_balanced(i)
    assert cert.balanced
    assert all(c > 0 for c in cert.coefficients)
    assert cert.verify(i)


def test_zero_dimension_is_balanced():
    assert is_balanced(inst(0, [], [])).balanced


def test_empty_everything_unbalanced_in_positive_dimension():
    cert = is_balanced(inst(2, [], []))
    assert not cert.balanced


def test_rank_deficiency_detected():
    i = inst(2, [[1, 0], [-1, 0]], [])
    cert = is_balanced(i)
    assert not cert.balanced
    assert cert.verify(i)


def test_negating_p_preserves_unbalancedness():
    rng = random.Random(19)
    for _ in range(60):
        k = rng.randint(1, 3)
        ps = [[Fraction(rng.randint(-2, 2)) for _ in range(k)]
              for _ in range(rng.randint(1, 4))]
        ns = [[Fraction(rng.randint(-2, 2)) for _ in range(k)]
              for _ in range(rng.randint(0, 2))]
        a = is_balanced(inst(k, ps, ns))
        b = is_balanced(inst(k, [[-x for x in p] for p in ps], ns))
        assert a.balanced == b.balanced
        if not a.balanced:
            flipped = tuple(-x for x in a.functional)
            assert all(sum(f * x for f, x in zip(flipped, p)) >= 0
                       for p in [[-x for x in q] for q in ps])


def test_monotone_moving_p_to_n():
    rng = random.Random(23)
    for _ in range(80):
        k = rng.randint(1, 4)
        ps = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
              for _ in range(rng.randint(1, 5))]
        ns = [[Fraction(rng.randint(-3, 3)) for _ in range(k)]
              for _ in range(rng.randint(0, 3))]
        before = is_balanced(inst(k, ps, ns)).balanced
        idx = rng.randrange(len(ps))
        moved = ps[:idx] + ps[idx + 1:]
        after = is_balanced(inst(k, moved, ns + [ps[idx]])).balanced
        if before:
            assert after, (ps, ns, idx)


def test_certificates_always_verify_and_match_bruteforce():
    rng = random.Random(77)
    for _ in range(250):
        k = rng.randint(1, 4)
        npv = rng.randint(0, 6)
        nnv = rng.randint(0, 5)

        def vec():
            return [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(k)]

        i = inst(k, [vec() for _ in range(npv)], [vec() for _ in range(nnv)])
        cert = is_balanced(i)
        assert cert.verify(i)
        assert cert.balanced == is_balanced_bruteforce(i)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        inst(2, [[1, 0, 0]], [])
    with pytest.raises(ValueError):
        inst(2, [[Fraction(1), Fraction(0)]], [(Fraction(1),)])


def test_make_stores_fractions_whatever_it_is_given():
    ps, ns = [[1, -2], [0, 3]], [[5, 7]]
    as_fractions = inst(2, [[Fraction(x) for x in v] for v in ps],
                        [tuple(Fraction(x) for x in v) for v in ns])
    mixed = inst(2, [[1, Fraction(-2)], [Fraction(0), 3]], [(Fraction(5), 7)])
    from_ints = inst(2, ps, ns)
    assert from_ints == mixed == as_fractions
    assert hash(from_ints) == hash(mixed) == hash(as_fractions)
    for i in (from_ints, mixed, as_fractions):
        assert all(type(x) is Fraction for v in i.p_vectors + i.n_vectors for x in v)
        assert all(type(v) is tuple for v in i.p_vectors + i.n_vectors)


def _first_basis(vectors):
    """Indices of the vectors that lie outside the span of those kept before
    them, by Fraction elimination against the kept echelon rows."""
    echelon, kept = [], []
    for idx, v in enumerate(vectors):
        r = list(v)
        for piv, row in echelon:
            if r[piv] != 0:
                f = r[piv]
                r = [a - f * b for a, b in zip(r, row)]
        piv = next((c for c, x in enumerate(r) if x != 0), None)
        if piv is not None:
            echelon.append((piv, [x / r[piv] for x in r]))
            kept.append(idx)
    return kept


small_fraction = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def instances():
    def of_dim(k):
        vec = st.lists(small_fraction, min_size=k, max_size=k)
        return st.tuples(st.just(k), st.lists(vec, max_size=7), st.lists(vec, max_size=5))
    return st.integers(1, 4).flatmap(of_dim)


@settings(max_examples=300)
@given(instances())
def test_spanning_indices_are_the_first_basis_in_p_then_n_order(case):
    k, ps, ns = case
    i = inst(k, ps, ns)
    cert = is_balanced(i)
    assert cert.balanced == is_balanced_bruteforce(i)
    if cert.balanced:
        labels = [("p", j) for j in range(len(ps))] + [("n", j) for j in range(len(ns))]
        first = _first_basis(ps + ns)
        assert len(first) == k
        assert cert.spanning_indices == [labels[j] for j in first]


# -- reference: the dense phase one ------------------------------------------
#
# `_phase_one` updates only the pivot row's nonzero columns. The body below is
# the earlier one, which updates every column of every row and of the cost
# row; the two must agree on the status and on x or y, type for type.

def _dense_phase_one(a_cols, b):
    m = len(b)
    n = len(a_cols)
    rows = [[a_cols[j][i] for j in range(n)] for i in range(m)]
    rhs = list(b)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    t = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]]
         for i in range(m)]
    basis = [n + i for i in range(m)]
    ncols = n + m
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
        piv = t[leave][enter]
        t[leave] = [x / piv for x in t[leave]]
        for i in range(m):
            if i != leave and t[i][enter] != 0:
                f = t[i][enter]
                t[i] = [t[i][j] - f * t[leave][j] for j in range(ncols + 1)]
        f = cost[enter]
        cost = [cost[j] - f * t[leave][j] for j in range(ncols + 1)]
        basis[leave] = enter
    else:
        raise SimplexError("simplex failed to terminate")
    if cost[ncols] == 0:
        x = [Fraction(0)] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = t[i][ncols]
        return "feasible", x
    y = [(-1 if b[i] < 0 else 1) * (1 - cost[n + i]) for i in range(m)]
    return "infeasible", y


def _balance_lp(k, ps, ns):
    """The phase-one problem `is_balanced` poses for these vectors."""
    i = inst(k, ps, ns)
    cols = list(i.p_vectors)
    for v in i.n_vectors:
        cols += [v, tuple(-x for x in v)]
    return cols, tuple(-sum(v[r] for v in i.p_vectors) for r in range(k))


def _assert_same_phase_one(cols, b):
    # repr, so that an int 0 where the dense pass gives Fraction(0) fails too
    assert repr(_phase_one(cols, b)) == repr(_dense_phase_one(cols, b))


def sweep_shaped_lps():
    """Small-integer vectors that are zero with a probability of 0 to 90%,
    as `is_balanced` poses them and as a bare system A x = b."""
    def of_shape(shape):
        k, n_p, n_n, zeros = shape
        cell = st.tuples(st.integers(0, 9), st.integers(-2, 2)).map(
            lambda c: 0 if c[0] < zeros else c[1])
        vec = st.lists(cell, min_size=k, max_size=k)
        return st.tuples(st.just(k), st.lists(vec, min_size=n_p, max_size=n_p),
                         st.lists(vec, min_size=n_n, max_size=n_n), vec)
    return st.tuples(st.integers(1, 6), st.integers(0, 7), st.integers(0, 5),
                     st.integers(0, 9)).flatmap(of_shape)


@settings(max_examples=300)
@given(sweep_shaped_lps())
def test_phase_one_on_sweep_shaped_lps_equals_the_dense_pass(case):
    k, ps, ns, b = case
    _assert_same_phase_one(*_balance_lp(k, ps, ns))
    cols = [tuple(Fraction(x) for x in v) for v in ps + ns]
    if cols:
        _assert_same_phase_one(cols, tuple(Fraction(x) for x in b))


def test_phase_one_on_criterion_5_lps_equals_the_dense_pass():
    rng = random.Random(5150)
    statuses = set()
    for _ in range(300):
        k = rng.randint(1, 5)
        nv = rng.randint(1, 12)
        np_count = rng.randint(0, nv)
        vecs = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
                for _ in range(nv)]
        cols, b = _balance_lp(k, vecs[:np_count], vecs[np_count:])
        _assert_same_phase_one(cols, b)
        statuses.add(_phase_one(cols, b)[0])
    assert statuses == {"feasible", "infeasible"}


@settings(max_examples=300)
@given(sweep_shaped_lps())
def test_phase_one_with_a_zero_right_hand_side_ends_at_zero(case):
    """With b = 0 the dense phase one ends feasible at exactly x = 0, which
    `is_balanced` takes without pivoting when the P vectors sum to 0."""
    k, ps, ns, _ = case
    cols = [tuple(Fraction(x) for x in v) for v in ps + ns]
    zero = (Fraction(0),) * k
    if cols:
        assert repr(_dense_phase_one(cols, zero)) == repr(("feasible", [Fraction(0)] * len(cols)))
    if ps:
        ps = ps + [[-sum(c) for c in zip(*ps)]]
    cols, b = _balance_lp(k, ps, ns)
    assert b == zero
    x = [Fraction(0)] * len(cols)
    if cols:
        assert repr(_dense_phase_one(cols, zero)) == repr(("feasible", x))
    cert = is_balanced(inst(k, ps, ns))
    if cert.balanced:
        assert cert.coefficients == [1] * len(ps) and cert.n_coefficients == [0] * len(ns)


# -- the canonical instance ---------------------------------------------------

positive_fraction = st.builds(Fraction, st.integers(1, 5), st.integers(1, 5))


def _rescaled(data, vectors, signs):
    """Each vector once or twice, each copy scaled by a positive fraction
    times one of ``signs``."""
    out = []
    for v in vectors:
        for _ in range(data.draw(st.integers(1, 2))):
            c = data.draw(positive_fraction) * data.draw(st.sampled_from(signs))
            out.append([c * x for x in v])
    return out


@settings(max_examples=300)
@given(instances(), st.data())
def test_canonical_key_keeps_the_verdict_and_forgets_scale_repeats_order_and_zeros(case, data):
    """The key forgets positive scales on P, nonzero scales on N, repeats,
    order, zero vectors and the sign of all of P at once: (-P, N) has the
    verdict of (P, N)."""
    k, ps, ns = case
    original = inst(k, ps, ns)
    key = canonical_key(original)
    zeros = [[0] * k] * data.draw(st.integers(0, 2))
    ps2 = data.draw(st.permutations(_rescaled(data, ps, (1,)) + zeros))
    if data.draw(st.booleans()):
        ps2 = [[-x for x in v] for v in ps2]
    ns2 = data.draw(st.permutations(_rescaled(data, ns, (1, -1)) + zeros))
    variant = inst(k, ps2, ns2)
    assert canonical_key(variant) == key
    verdict = is_balanced(original).balanced
    assert is_balanced(variant).balanced == verdict == is_balanced_bruteforce(original) \
        == is_balanced_bruteforce(variant)

    _, kp, kn = key
    assert list(kp) == sorted(set(kp)) and list(kn) == sorted(set(kn))
    assert list(kp) <= sorted(tuple(-x for x in v) for v in kp)
    for v in kp + kn:
        assert all(type(x) is int for x in v) and math.gcd(*v) == 1
    assert all(next(x for x in v if x) > 0 for v in kn)
    canonical = BalancednessInstance.make(*key)
    assert canonical_key(canonical) == key
    cert = is_balanced(canonical)
    assert cert.balanced == verdict and cert.verify(canonical)


# -- the quotient by span(N) ---------------------------------------------------

def integer_instances():
    def of_dim(k):
        vec = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
        return st.tuples(st.just(k), st.lists(vec, max_size=7), st.lists(vec, max_size=5))
    return st.integers(1, 5).flatmap(of_dim)


@settings(max_examples=500)
@given(integer_instances())
def test_quotient_key_keeps_the_verdict(case):
    """The image of P in R^k / span(N), as a key with no N, has the verdict
    of (P, N), and it is its own quotient key."""
    k, ps, ns = case
    original = inst(k, ps, ns)
    quotient = quotient_key(canonical_key(original))
    kq, qp, qn = quotient
    assert qn == () and kq == k - (linalg.frac_rank(ns) if ns else 0)
    assert quotient_key(quotient) == quotient
    assert canonical_key(BalancednessInstance.make(*quotient)) == quotient
    cert = is_balanced(BalancednessInstance.make(*quotient))
    assert cert.balanced == is_balanced_bruteforce(original)


@settings(max_examples=300)
@given(integer_instances(), st.data())
def test_quotient_key_depends_only_on_the_span_of_n(case, data):
    """Replacing N by another spanning set of span(N) -- integer row
    operations that keep the span, extra combinations, zero vectors --
    leaves the quotient key as it was."""
    k, ps, ns = case
    ns2 = [list(v) for v in ns]
    for _ in range(data.draw(st.integers(0, 6))):
        if not ns2:
            break
        i = data.draw(st.integers(0, len(ns2) - 1))
        j = data.draw(st.integers(0, len(ns2) - 1))
        c = data.draw(st.integers(-3, 3).filter(bool))
        op = data.draw(st.sampled_from(("add", "scale", "combine")))
        if op == "add" and i != j:
            ns2[i] = [x + c * y for x, y in zip(ns2[i], ns2[j])]
        elif op == "scale":
            ns2[i] = [c * x for x in ns2[i]]
        elif op == "combine":
            ns2.append([x + c * y for x, y in zip(ns2[i], ns2[j])])
    ns2 = data.draw(st.permutations(ns2 + [[0] * k] * data.draw(st.integers(0, 1))))
    assert quotient_key(canonical_key(inst(k, ps, ns2))) == \
        quotient_key(canonical_key(inst(k, ps, ns)))
