import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liebalance import linalg
from liebalance.exact import (GaussianRational, I, ONE, Quaternion, Signature,
                              ZERO, gmat, signature_of)


def congruence(a, m):
    """A* M A."""
    return linalg.matmul(linalg.conj_transpose(a), linalg.matmul(m, a))


def test_gaussian_arithmetic_exact():
    a = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
    b = GaussianRational(Fraction(-1, 3), Fraction(4, 9))
    assert (a * b) * a.inverse() == b
    assert (a / b) * (b / a) == ONE
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.norm() == (a * a.conjugate()).re
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_gaussian_rejects_floats():
    with pytest.raises(TypeError):
        GaussianRational.of(0.5)


def test_quaternion_algebra():
    rng = random.Random(5)

    def rand_q():
        f = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return Quaternion(GaussianRational(f(), f()), GaussianRational(f(), f()))

    for _ in range(30):
        p, q, r = rand_q(), rand_q(), rand_q()
        assert (p * q) * r == p * (q * r)
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()
        assert (p * q).complex_part == (p * q).a
        if not p.is_zero():
            assert p * p.inverse() == Quaternion(1, 0)
    j = Quaternion(0, 1)
    i_ = Quaternion(I, 0)
    assert j * j == Quaternion(-1, 0)
    assert i_ * j == -(j * i_)


def test_signature_basic_examples():
    assert signature_of(gmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == Signature(3, 0, 0)
    assert signature_of(gmat([[1, 0], [0, -1]])) == Signature(1, 1, 0)
    # the tautological pairing W x dual(W) with dim W = 2 splits evenly
    taut = gmat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert signature_of(taut) == Signature(2, 2, 0)


def test_signature_hyperbolic_pivots_and_null():
    m = gmat([[0, I], [-I, 0]])
    assert signature_of(m) == Signature(1, 1, 0)
    z = gmat([[0, 0], [0, 0]])
    assert signature_of(z) == Signature(0, 0, 2)
    m2 = gmat([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert signature_of(m2) == Signature(1, 1, 1)


def test_signature_rejects_non_hermitian():
    with pytest.raises(ValueError):
        signature_of(gmat([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        signature_of(gmat([[I, 0], [0, 0]]))


def test_signature_congruence_invariance():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = GaussianRational(rng.randint(-3, 3))
            for j in range(i + 1, n):
                x = GaussianRational(Fraction(rng.randint(-2, 2)),
                                     Fraction(rng.randint(-2, 2)))
                m[i][j] = x
                m[j][i] = x.conjugate()
        base = signature_of(m)
        while True:
            a = [[GaussianRational(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                                   Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
                  for _ in range(n)] for _ in range(n)]
            from liebalance.linalg import rank
            if rank(a) == n:
                break
        assert signature_of(congruence(a, m)) == base


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
gaussians = st.builds(GaussianRational, rationals, rationals)
units = gaussians.filter(lambda x: not x.is_zero())


@st.composite
def hermitian_and_invertible(draw):
    """A Hermitian matrix M over Q(i), possibly singular, and an invertible A
    built as L P U (lower triangular with a nonzero diagonal, a permutation,
    unit upper triangular), which reaches every invertible matrix."""
    n = draw(st.integers(1, 4))
    m = [[ZERO] * n for _ in range(n)]
    lower = [[ZERO] * n for _ in range(n)]
    upper = linalg.identity(n)
    for i in range(n):
        m[i][i] = GaussianRational(draw(rationals))
        lower[i][i] = draw(units)
        for j in range(i + 1, n):
            m[i][j] = draw(gaussians)
            m[j][i] = m[i][j].conjugate()
            lower[j][i] = draw(gaussians)
            upper[i][j] = draw(gaussians)
    perm = draw(st.permutations(range(n)))
    p = [[ONE if perm[i] == j else ZERO for j in range(n)] for i in range(n)]
    return m, linalg.matmul(linalg.matmul(lower, p), upper)


@settings(max_examples=100)
@given(hermitian_and_invertible())
def test_signature_invariant_under_random_congruence(case):
    """Sylvester's law of inertia: A* M A has the signature of M."""
    m, a = case
    assert signature_of(congruence(a, m)) == signature_of(m)


def direct_sum(m1, m2):
    """The block-diagonal matrix with blocks m1 and m2."""
    n1, n2 = len(m1), len(m2)
    out = [[ZERO] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            out[i][j] = m1[i][j]
    for i in range(n2):
        for j in range(n2):
            out[n1 + i][n1 + j] = m2[i][j]
    return out


def test_signature_direct_sum_additivity():
    m1 = gmat([[1, 0], [0, -1]])
    m2 = gmat([[2]])
    s = signature_of(direct_sum(m1, m2))
    assert s == signature_of(m1) + signature_of(m2)
