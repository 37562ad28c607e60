import math
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


# -- the integer echelon form -------------------------------------------------

@settings(max_examples=300)
@given(sparse_matrices(st.integers(-3, 3).map(Fraction)))
def test_int_echelon_has_the_pivots_and_rank_of_rref(a):
    """`int_echelon` finds `rref`'s pivot columns, negative pivot entries
    included: its rows are primitive integer rows with a positive pivot entry
    first, later rows vanish in each earlier pivot column, and the rows span
    the input's row space."""
    rows = [[int(x) for x in row] for row in a]
    echelon, pivots = linalg.int_echelon(rows)
    assert pivots == linalg.rref(a)[1]
    assert len(echelon) == len(pivots) == linalg.rank(a)
    for i, (row, c) in enumerate(zip(echelon, pivots)):
        assert all(type(x) is int for x in row) and math.gcd(*row) == 1
        assert not any(row[:c]) and row[c] > 0
        assert all(later[c] == 0 for later in echelon[i + 1:])
    assert linalg.frac_rank(rows + echelon) == len(pivots)


def test_int_echelon_makes_every_pivot_entry_positive():
    # negative leading entries, and one that elimination turns negative
    assert linalg.int_echelon([[-2, -4, 6], [0, -3, 1]]) == ([[1, 2, -3], [0, 3, -1]], [0, 1])
    assert linalg.int_echelon([[1, 1], [1, 0]]) == ([[1, 1], [0, 1]], [0, 1])
    assert linalg.int_echelon([[0, 0], [2, -4], [-1, 2]]) == ([[1, -2]], [0])
    assert linalg.int_echelon([]) == ([], [])


@settings(max_examples=300)
@given(st.integers(1, 7).flatmap(lambda ncols: st.tuples(st.just(ncols), st.lists(
    st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), max_size=6))))
def test_int_nullspace_is_frac_nullspace_over_its_denominator(shape):
    """`int_nullspace` gives `frac_nullspace`'s basis, vector for vector, as
    integer vectors over the least common denominator of its entries; no
    rows give the identity."""
    ncols, rows = shape
    vectors, den = linalg.int_nullspace(rows, ncols)
    basis = linalg.frac_nullspace([[Fraction(x) for x in row] for row in rows], ncols)
    assert [[Fraction(x, den) for x in v] for v in vectors] == basis
    assert den == math.lcm(*(x.denominator for v in basis for x in v))
    assert all(type(x) is int for v in vectors for x in v)


def test_int_nullspace_of_no_rows_full_rank_and_fractional_bases():
    assert linalg.int_nullspace([], 3) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)
    assert linalg.int_nullspace([], 0) == ([], 1)
    # full column rank: nothing but 0 solves it
    assert linalg.int_nullspace([[2, 1], [1, 3]], 2) == ([], 1)
    # back-substitution: 3y - 2z = 0 clears y from the first row
    assert linalg.int_nullspace([[3, 0, 1], [1, 2, -1]], 3) == ([[-1, 2, 3]], 3)
    # pivot entries 2 and 3: basis (-1/2, -1/3, 1) over their lcm
    assert linalg.int_nullspace([[2, 0, 1], [0, 3, 1]], 3) == ([[-3, -2, 6]], 6)
