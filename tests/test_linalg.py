from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from liebalance import linalg
from liebalance.exact import GaussianRational

small_fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussian = st.builds(GaussianRational, small_fraction, small_fraction)


def matrices(rows=st.integers(1, 4), cols=st.integers(1, 4)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: st.lists(st.lists(gaussian, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]))


def square_matrices():
    return st.integers(1, 4).flatmap(lambda n: matrices(st.just(n), st.just(n)))


@given(matrices())
def test_conj_transpose_is_an_involution(a):
    assert linalg.conj_transpose(linalg.conj_transpose(a)) == a


@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: st.tuples(matrices(st.just(s[0]), st.just(s[1])),
                        matrices(st.just(s[1]), st.just(s[2])))))
def test_conj_transpose_reverses_products(ab):
    a, b = ab
    assert linalg.conj_transpose(linalg.matmul(a, b)) == \
        linalg.matmul(linalg.conj_transpose(b), linalg.conj_transpose(a))


@given(matrices())
def test_rank_plus_nullity_is_the_column_count(a):
    null = linalg.nullspace(a)
    assert linalg.rank(a) + len(null) == len(a[0])
    for v in null:
        assert all(x.is_zero() for x in linalg.mat_vec(a, v))
