"""Exact linear algebra kernel: matrix product, inverse, Smith form,
integer kernel; and the polynomial oracles the tests check the eigenvalue
counts of w_nu with (`charpoly`, `cyclotomic`), since `exactlinalg` holds
matrices only."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newtonstrata import dynkin
from newtonstrata.exactlinalg import (
    identity,
    integer_kernel,
    inverse,
    mat_mul,
    smith_normal_form,
    unimodular_inverse,
)
from newtonstrata.rationals import Q
from oracles import (
    charpoly, cyclotomic, det, fraction_inverse, mat_vec, poly_mul)
from oracles import mat_mul as mat_mul_loops


def test_solve_and_inverse():
    m = [[Q(2), Q(1)], [Q(1), Q(3)]]
    adj, den = inverse(m)
    assert mat_mul(m, adj) == [[den, 0], [0, den]]


@pytest.mark.parametrize("mat", [[[Q(1, 2)]], [[Q(3, 2), 1], [1, 1]]])
@pytest.mark.parametrize("routine", [smith_normal_form, inverse])
def test_non_integral_entry_raises(routine, mat):
    # truncating 1/2 to 0 would give rank 0, and 3/2 to 1 rank 1 (it is 2)
    with pytest.raises(ValueError):
        routine(mat)


def test_inverse_needs_square():
    # both have full rank: only the shape check refuses them
    for mat in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
        with pytest.raises(ValueError):
            inverse(mat)


SCALARS = st.one_of(st.integers(-50, 50),
                    st.fractions(-50, 50, max_denominator=12))


@given(st.data(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from(["int", "fraction"]))
def test_mat_mul_matches_triple_loop(data, rows, inner, cols, kind):
    # rectangular shapes, 1 x k and k x 1 among them; exact on ints and
    # on Fractions alike, and ints stay ints
    entries = st.integers(-50, 50) if kind == "int" else SCALARS
    a = data.draw(_matrix(rows, inner, entries))
    b = data.draw(_matrix(inner, cols, entries))
    got = mat_mul(a, b)
    assert got == mat_mul_loops(a, b)
    assert len(got) == rows and all(len(row) == cols for row in got)
    if kind == "int":
        assert all(type(x) is int for row in got for x in row)


@pytest.mark.parametrize("a, b", [
    ([[1, 2, 3]], [[4], [5], [6]]),  # 1 x k times k x 1
    ([[4], [5], [6]], [[1, 2, 3]]),  # k x 1 times 1 x k
    ([[Q(1, 2), Q(-1, 3)]], [[Q(2)], [Q(3)]]),
])
def test_mat_mul_thin_shapes(a, b):
    assert mat_mul(a, b) == mat_mul_loops(a, b)


def test_charpoly_constant_first():
    # x^2 - 5x + 2 for [[2,1],[2,3]]: det=4, trace=5
    p = charpoly([[2, 1], [2, 3]])
    assert p == [4, -5, 1]


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_charpoly_matches_cofactor(m):
    # the reference the eigenvalue counts are checked against: monic,
    # integral on an integer matrix, and det(t*I - M) at each t in 0..n
    n = len(m)
    p = charpoly(m)
    assert all(c.denominator == 1 for c in p) and p[-1] == 1
    for t in range(n + 1):
        tm = [[t * (i == j) - m[i][j] for j in range(n)] for i in range(n)]
        assert sum(c * t ** k for k, c in enumerate(p)) == det(tm)


def test_smith_normal_form():
    rng = random.Random(7)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


def test_integer_kernel():
    # kernel of (1 2 3) is rank 2; every member must be annihilated
    ker = integer_kernel([[1, 2, 3]])
    assert len(ker) == 2
    for v in ker:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_cyclotomic():
    assert cyclotomic(1) == [-1, 1]
    assert cyclotomic(2) == [1, 1]
    assert cyclotomic(3) == [1, 1, 1]
    assert cyclotomic(4) == [1, 0, 1]
    assert cyclotomic(6) == [1, -1, 1]
    assert cyclotomic(30) == [1, 1, 0, -1, -1, -1, 0, 1, 1]
    # product over the divisors of 12 reproduces x^12 - 1
    prod = [1]
    for d in (1, 2, 3, 4, 6, 12):
        prod = poly_mul(prod, cyclotomic(d))
    assert prod == [-1] + [0] * 11 + [1]


def test_euler_phi():
    # phi(k), the degree of the k-th cyclotomic polynomial, is the count
    # of units mod k that the library divides the eigenvalue counts by
    assert [len(cyclotomic(k)) - 1 for k in range(1, 31)] == [
        sum(math.gcd(j, k) == 1 for j in range(k)) for k in range(1, 31)]


def test_unimodular_inverse():
    assert unimodular_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    with pytest.raises(RuntimeError, match="matrix is not unimodular"):
        unimodular_inverse([[2, 0], [0, 1]])


def test_mat_vec():
    assert tuple(mat_vec([[1, 2], [3, 4]], [5, 6])) == (17, 39)


# Random small integer matrices.  The Smith-form kernel (integer_kernel)
# is an elimination-free oracle for rank and singularity.

_ENTRY = st.integers(-5, 5)


def _matrix(rows, cols, entries=_ENTRY):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


_SQUARE = st.integers(1, 4).flatmap(lambda n: _matrix(n, n))
_RECT = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: _matrix(*shape))
_WIDE = st.integers(2, 4).flatmap(
    lambda n: st.integers(1, n - 1).flatmap(lambda r: _matrix(r, n)))


@given(_SQUARE)
def test_inverse_and_solve_on_nonsingular(a):
    n = len(a)
    if integer_kernel(a):  # singular: covered by the test below
        return
    adj, den = inverse(a)
    assert mat_mul(adj, a) == [[den * x for x in row] for row in identity(n)]


def _check_inverse(a):
    n = len(a)
    adj, den = inverse(a)
    assert mat_mul(adj, a) == [[den * x for x in row] for row in identity(n)]
    assert den > 0
    assert all(type(x) is int for row in adj for x in row)
    assert math.gcd(den, *(x for row in adj for x in row)) == 1  # den least
    assert [[Q(x, den) for x in row] for row in adj] == fraction_inverse(a)


@given(st.integers(1, 5).flatmap(lambda n: _matrix(n, n)).filter(
    lambda a: det(a) != 0))
def test_inverse_is_least_scaled_adjugate(a):
    _check_inverse(a)


def test_inverse_of_cartan_blocks():
    # every principal block of every simple Cartan matrix, as `pm_solver`
    # inverts it for a Levi subset
    blocks = set()
    for letter, (lo, hi) in dynkin.RANK_BOUNDS.items():
        for r in range(lo, hi + 1):
            c = dynkin.cartan_matrix(letter, r)
            for mask in range(1, 1 << r):
                idx = [j for j in range(r) if mask >> j & 1]
                blocks.add(tuple(tuple(c[i][j] for j in idx) for i in idx))
    for block in sorted(blocks):
        _check_inverse(block)
        # Lusztig-Tits: the inverse of a Cartan matrix of finite type is
        # nonnegative
        adj, den = inverse(block)
        assert den > 0 and all(x >= 0 for row in adj for x in row)


@given(_RECT)
def test_rank_nullity_against_smith_kernel(a):
    d, _u, _v = smith_normal_form(a)
    rank = sum(1 for i in range(min(len(a), len(a[0]))) if d[i][i])
    assert rank + len(integer_kernel(a)) == len(a[0])


@given(_WIDE, st.data())
def test_singular_raises(a, data):
    # append integer combinations of the rows until square: rank < n
    n = len(a[0])
    while len(a) < n:
        coeffs = data.draw(st.lists(_ENTRY, min_size=len(a), max_size=len(a)))
        a = a + [[sum(c * row[j] for c, row in zip(coeffs, a))
                  for j in range(n)]]
    assert integer_kernel(a)
    with pytest.raises(ValueError):
        inverse(a)
