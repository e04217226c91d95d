"""Exact linear algebra over the integers.

Matrices are row-major sequences of rows of ints (integral rationals
are accepted).  There is one elimination routine, the Smith normal
form: `inverse`, `integer_kernel` and `unimodular_inverse` all read
it.  No floating point anywhere.
"""

import functools
import operator


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def charpoly(mat):
    """Characteristic polynomial det(T*I - M) of an integer matrix.

    Returns integer coefficients [c0, c1, ..., cn] with cn = 1
    (Faddeev-LeVerrier on ints: each c_k = -tr(A_k) / k divides exactly).
    """
    n = len(mat)
    m = [list(row) for row in mat]
    coeffs = [1]  # leading coefficient
    a = [row[:] for row in m]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                a[i][i] += coeffs[-1]
            a = mat_mul(m, a)
        ck, rem = divmod(-sum(a[i][i] for i in range(n)), k)
        if rem:
            raise RuntimeError("characteristic polynomial is not integral")
        coeffs.append(ck)
    return coeffs[::-1]  # constant term first


# ---------------------------------------------------------------------------
# Integer normal forms


def smith_normal_form(mat):
    """Smith normal form of an integer matrix.

    Returns (d, u, v) with u*mat*v = d, u and v unimodular, and the
    diagonal of d a divisibility chain d1 | d2 | ... of nonnegative ints.
    ValueError on an entry that is not an integer.
    """
    m = [[int(x) for x in row] for row in mat]
    if m != [list(row) for row in mat]:
        raise ValueError("Smith normal form needs integer entries")
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = identity(nr)
    v = identity(nc)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, f):
        m[dst] = [a + f * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + f * b for a, b in zip(u[dst], u[src])]

    def addmul_col(dst, src, f):
        for row in m:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(nr, nc):
        # locate the nonzero entry of least magnitude in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    addmul_row(i, t, -(m[i][t] // m[t][t]))
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    addmul_col(j, t, -(m[t][j] // m[t][t]))
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # every remaining entry must be divisible by the pivot
        fixed = True
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t] != 0:
                    addmul_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    for i in range(min(nr, nc)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
    return m, u, v


def inverse(mat):
    """(adj, den) with mat^-1 = adj / den for a nonsingular square integer
    matrix: den is the last invariant factor d_n of the Smith form
    u mat v = d, the least den making adj integral, and
    adj = v diag(den / d_k) u.  ValueError if mat is not square or is
    singular."""
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("inverse needs a square matrix")
    d, u, v = smith_normal_form(mat)
    diag = [d[k][k] for k in range(len(d))]
    if 0 in diag:
        raise ValueError("singular matrix")
    den = diag[-1]
    scaled = [[den // dk * x for x in row] for dk, row in zip(diag, u)]
    return mat_mul(v, scaled), den


def integer_kernel(mat):
    """Z-basis of the saturated lattice {x in Z^nc : mat @ x = 0}."""
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    d, _u, v = smith_normal_form(mat)
    r = sum(1 for i in range(min(nr, nc)) if d[i][i] != 0)
    return [tuple(v[i][j] for i in range(nc)) for j in range(r, nc)]


def unimodular_inverse(v):
    """Inverse of a unimodular integer matrix, returned with int entries."""
    adj, den = inverse(v)
    if den != 1:
        raise RuntimeError("matrix is not unimodular")
    return adj


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, constant term first)


def poly_divmod(a, b):
    """Exact division of integer polynomials with monic-ish divisor."""
    a = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        if a[-1] % b[-1] != 0:
            break
        f = a[-1] // b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, y in enumerate(b):
            a[shift + i] -= f * y
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@functools.cache
def cyclotomic(d):
    """d-th cyclotomic polynomial over Z, constant term first.  The list
    is cached and shared: callers must not change it."""
    num = [0] * d + [1]
    num[0] = -1  # x^d - 1
    for e in divisors(d)[:-1]:
        num, rem = poly_divmod(num, cyclotomic(e))
        if rem != [0]:
            raise RuntimeError(f"cyclotomic division left a remainder at d={d}")
    return num
