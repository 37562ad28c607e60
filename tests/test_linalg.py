from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from liebalance import linalg
from liebalance.exact import GaussianRational, gmat

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


def test_the_null_space_of_no_relations_is_the_identity():
    # callers read the whole space off an empty system this way
    for k in range(5):
        basis = linalg.frac_nullspace([], k)
        assert basis == [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        assert all(type(x) is Fraction for row in basis for x in row)


# -- reference: the dense elimination ----------------------------------------
#
# `linalg.rref` updates only the pivot row's nonzero columns. The body below
# is the earlier one, which updates every column of every row; the two must
# give the same matrix and the same pivots, entry for entry.

def _dense_rref(rows):
    a = gmat(rows)
    if not a:
        return a, []
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not a[i][c].is_zero()), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [a[i][k] - f * a[r][k] for k in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def sparse_matrices(entry):
    """Matrices of up to 6 x 7 whose entries are zero with a probability of
    0 to 90%, drawn once per matrix."""
    def of_shape(shape):
        nrows, ncols, zeros = shape
        cell = st.tuples(st.integers(0, 9), entry).map(
            lambda c: Fraction(0) if c[0] < zeros else c[1])
        return st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                        min_size=nrows, max_size=nrows)
    return st.tuples(st.integers(1, 6), st.integers(1, 7), st.integers(0, 9)).flatmap(
        of_shape)


@settings(max_examples=300)
@given(sparse_matrices(small_fraction))
def test_rref_over_q_equals_the_dense_elimination(a):
    assert linalg.rref(a) == _dense_rref(a)


@settings(max_examples=300)
@given(sparse_matrices(gaussian))
def test_rref_over_q_i_equals_the_dense_elimination(a):
    assert linalg.rref(a) == _dense_rref(a)


def test_rref_leaves_its_input_alone():
    a = [[GaussianRational(0), GaussianRational(2)], [GaussianRational(3), GaussianRational(1)]]
    before = [list(row) for row in a]
    assert linalg.rref(a) == _dense_rref(a)
    assert a == before
