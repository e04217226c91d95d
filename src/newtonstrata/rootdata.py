"""Root data with simply connected derived group, in omega-coordinates.

A point x of the Cartan subspace is stored as the tuple
(<omega_1,x>, ..., <omega_n,x>).  In these coordinates the simple coroots
are the first l standard basis vectors, so dominance, the partial order
and the Levi projections are all coordinate computations.

Indices are 0-based everywhere in this module; serialization to the CLI
formats shifts to 1-based.
"""

import itertools
import math
import operator
import re

from . import dynkin, exactlinalg
from .rationals import NEG_INF, Q, scale_to_ints


# The most elements an orbit walk visits, and the most box values the
# Newton point walk tries on one face, before raising OrbitGuardError.
GUARD = 10**6


class GroupSpecError(ValueError):
    """Raised when a group descriptor string cannot be parsed or validated."""


class OrbitGuardError(RuntimeError):
    """Raised when an orbit or lattice enumeration exceeds its size guard."""


class FrozenError(AttributeError):
    """Raised on assigning to or deleting an attribute of a `record`."""


def _refuse_set(self, name, value):
    raise FrozenError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenError(f"cannot delete field {name!r}")


def _bind(cls, names, args, kwargs):
    """The values of a record's fields, in order, from a call that names
    some of them by keyword."""
    values = dict(zip(names, args), **kwargs)
    if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
        raise TypeError(f"{cls.__name__}() takes {', '.join(names)},"
                        " each once, by position or keyword")
    return [values[name] for name in names]


def record(*hidden):
    """Class decorator for a frozen value class: what
    `dataclass(frozen=True)` gives these classes, without importing
    `dataclasses` or generating code.  The fields are the class
    annotations, in order.  It adds an `__init__` taking them by
    position or keyword (then calling `__post_init__`, if the class has
    one), and a `__repr__`, `__eq__` and `__hash__` over the fields not
    named in `hidden`; assigning or deleting an attribute raises
    FrozenError.  Instances keep their `__dict__`, where a
    `cached_property` stores its value."""

    def build(cls):
        names = tuple(cls.__dict__.get("__annotations__", {}))
        keys = tuple(name for name in names if name not in hidden)
        get = operator.attrgetter(*keys)
        key = get if len(keys) > 1 else lambda self: (get(self),)
        post = hasattr(cls, "__post_init__")

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(names):
                args = _bind(cls, names, args, kwargs)
            self.__dict__.update(zip(names, args))
            if post:
                self.__post_init__()

        def __repr__(self):
            fields = ", ".join(f"{name}={value!r}"
                               for name, value in zip(keys, key(self)))
            return f"{self.__class__.__qualname__}({fields})"

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__init__ = __init__
        cls.__repr__ = __repr__
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__setattr__ = _refuse_set
        cls.__delattr__ = _refuse_delete
        return cls

    return build


@record()
class Factor:
    """One irreducible semisimple factor: Bourbaki type plus datum indices."""

    letter: str
    rank: int
    indices: tuple  # datum coordinate indices of its simple roots, Bourbaki order


@record()
class WeylElement:
    """Weyl group element: integer matrix acting on omega-coordinates."""

    matrix: tuple  # n x n, rows

    def act(self, x):
        m = self.matrix
        return tuple(
            sum(row[j] * x[j] for j in range(len(x)) if row[j]) for row in m
        )


class RootDatum:
    """Combinatorial skeleton of a split group: rank n, semisimple rank l,
    and the simple roots as integer columns in the omega-basis.

    The datum owns every cache derived from it, in one table filled
    through `memo`; nothing else can be attached.
    """

    __slots__ = ("n", "l", "alpha", "factors", "label", "_root_support",
                 "_memo")

    def __init__(self, n, l, alpha, factors, label=""):
        self.n = n
        self.l = l
        self.alpha = tuple(tuple(row) for row in alpha)  # n rows, l columns
        self.factors = tuple(factors)
        self.label = label
        self._validate()
        self._root_support = tuple(
            tuple((i, self.alpha[i][j]) for i in range(self.n)
                  if self.alpha[i][j])
            for j in range(self.l)
        )
        self._memo = {}  # table name -> {key: entry built by `memo`}

    def _validate(self):
        if not (1 <= self.n and 0 <= self.l <= self.n):
            raise GroupSpecError("rank bounds violated")
        if len(self.alpha) != self.n or any(len(r) != self.l for r in self.alpha):
            raise GroupSpecError("alpha matrix has wrong shape")
        block = [[self.alpha[i][j] for j in range(self.l)] for i in range(self.l)]
        expect = [[0] * self.l for _ in range(self.l)]
        for f in self.factors:
            lo, hi = dynkin.RANK_BOUNDS.get(f.letter, (1, 0))
            if not (lo <= f.rank <= hi and len(f.indices) == f.rank
                    and all(0 <= i < self.l for i in f.indices)):
                raise GroupSpecError(f"invalid factor {f!r}")
            cm = dynkin.cartan_matrix(f.letter, f.rank)
            for a in range(f.rank):
                for b in range(f.rank):
                    expect[f.indices[a]][f.indices[b]] = cm[a][b]
        if block != expect:
            raise GroupSpecError("top block does not match the Cartan matrix")
        covered = sorted(i for f in self.factors for i in f.indices)
        if covered != list(range(self.l)):
            raise GroupSpecError("factor indices do not cover the simple roots")

    def __repr__(self):
        return f"RootDatum({self.label or self.factors}, n={self.n}, l={self.l})"

    def memo(self, table, key, build, *args):
        """The entry `key` of the table named `table`, built as
        build(self, *args) on first use.  Each table is its own dict, so
        a key needs no table name wrapped around it; a table of one entry
        keeps it under the key None."""
        try:
            return self._memo[table][key]
        except KeyError:
            entry = self._memo.setdefault(table, {})[key] = build(self, *args)
            return entry

    # -- pairings and the partial order ------------------------------------

    def root_coords(self, j):
        """Coordinates of alpha_j in the omega-basis (a weight vector)."""
        return tuple(self.alpha[i][j] for i in range(self.n))

    def root_pairing(self, j, x):
        """<alpha_j, x> for finite x."""
        total = 0
        for i, a in self._root_support[j]:
            total += a * x[i]
        return total

    def pairings(self, x):
        """[<alpha_j, x> for each simple root j] for finite x, in one pass
        over the root supports."""
        out = []
        for support in self._root_support:
            total = 0
            for i, a in support:
                total += a * x[i]
            out.append(total)
        return out

    def point(self, x, neg_inf=False, integral=False):
        """x as a tuple, checked where it enters the library: ValueError
        unless it has n coordinates, each an int or a `Fraction` (a float
        is refused), -inf only with `neg_inf` and then only in the first
        l, and with `integral` an integer in every finite slot; those
        come back as ints."""
        if type(x) is not tuple:
            x = tuple(x)
        if len(x) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(x)}")
        free = self.l if neg_inf else 0
        ints = None
        for i, c in enumerate(x):
            t = type(c)
            if t is int:
                continue
            if c is NEG_INF:
                if i >= free:
                    raise ValueError(
                        f"-inf in torus coordinate {i + 1}" if neg_inf else
                        f"-inf in coordinate {i + 1} of a finite point")
                continue
            if t is not Q and not isinstance(c, (int, Q)):
                raise ValueError(f"coordinate {i + 1} is {c!r}, not an int"
                                 " or a Fraction")
            if integral:
                q = c if t is Q else Q(c)
                if q.denominator != 1:
                    raise ValueError(f"coordinate {i + 1} is {c}, not an"
                                     " integer")
                if ints is None:
                    ints = list(x)
                ints[i] = q.numerator
        return x if ints is None else tuple(ints)

    def scaled(self, x):
        """The int form (L, L x) of a point x, with L the lcm of its
        denominators, as `scale_to_ints` gives it.

        A certified point (a `chamber.NewtonPoint`) carries this form as
        its `scaled` and is trusted after a length check.  Any other x is
        checked by `point` first, with its errors."""
        if not hasattr(type(x), "scaled"):
            return scale_to_ints(self.point(x))
        form = x.scaled
        if len(form[1]) != self.n:
            raise ValueError(
                f"expected {self.n} coordinates, got {len(form[1])}")
        return form

    def is_dominant(self, x):
        """No simple root pairs negatively with x.  The signs are read on
        the int form L x of `scaled`."""
        return all(p >= 0 for p in self.pairings(self.scaled(x)[1]))

    def leq(self, x, y):
        """x <= y: y - x is a nonnegative combination of simple coroots, that
        is y_i >= x_i for i < l and y_i == x_i after.  Read on the int
        forms of `scaled`, by `leq_scaled`."""
        return self.leq_scaled(self.scaled(x), self.scaled(y))

    def leq_scaled(self, x, y):
        """`leq` on two int forms (L, L x) and (M, M y) from `scaled`,
        cross-multiplied: M L x_i <= L M y_i."""
        (dx, xs), (dy, ys) = x, y
        for i in range(self.l):
            if ys[i] * dx < xs[i] * dy:
                return False
        return all(ys[i] * dx == xs[i] * dy for i in range(self.l, self.n))

    # -- Weyl group --------------------------------------------------------

    def dominant_rep(self, x):
        """The dominant element y of the W-orbit of x and the tuple `word`
        of simple reflection indices in the order applied, so that
        y = s_{word[-1]} ... s_{word[0]} x.  Each step reflects by the first
        simple root that pairs negatively with the current point.  Only
        the length of x is checked: ValueError unless it is n.

        The pairings are read once; s_j moves only y_j, by -p for its
        pairing p, so each <alpha_k, y> then moves by -p alpha[j][k]
        along row j of alpha."""
        y = list(x)
        if len(y) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(y)}")
        alpha = self.alpha
        pairs = self.pairings(y)
        word = []
        while True:
            for j, p in enumerate(pairs):
                if p < 0:
                    break
            else:
                return tuple(y), tuple(word)
            y[j] -= p  # s_j in coordinates
            word.append(j)
            for k, a in enumerate(alpha[j]):
                if a:
                    pairs[k] -= p * a

    def orbit_tree(self, lam):
        """Walk the Weyl orbit of a weight lam by reverse search, yielding
        (mu, j, depth) in preorder, each orbit element once.

        s_j acts on weights as mu -> mu - mu_j alpha_j.  The root is the
        dominant element (j = -1, depth 0).  The parent of a non-dominant
        mu is s_j mu for the first j with mu_j < 0, so the children of mu
        are the s_j mu with mu_j > 0 whose coordinates before j stay >= 0.
        A child mu of depth d is s_j of the last element yielded at depth
        d - 1, and j is the first index with mu_j < 0.  No visited set is
        kept.  Raises OrbitGuardError past GUARD elements.
        """
        l, alpha, support = self.l, self.alpha, self._root_support
        guard = GUARD
        mu = list(lam)
        while True:  # climb to the root
            j = next((j for j in range(l) if mu[j] < 0), l)
            if j == l:
                break
            m = mu[j]
            for i, a in support[j]:
                mu[i] -= m * a
        stack = [(tuple(mu), -1, 0)]
        count = 0
        while stack:
            node = stack.pop()
            count += 1
            if count > guard:
                raise OrbitGuardError(f"orbit size exceeds guard {guard}")
            yield node
            mu, first, depth = node
            if first < 0:
                first = l
            for j in range(l):
                m = mu[j]
                # s_j only raises the coordinates before `first` (alpha_j
                # pairs <= 0 with the other simple coroots); those from
                # `first` to j must end >= 0
                if m <= 0 or j > first and mu[first] < m * alpha[first][j]:
                    continue
                nu = list(mu)
                for i, a in support[j]:
                    nu[i] -= m * a
                if j < first or min(nu[first:j]) >= 0:
                    stack.append((tuple(nu), j, depth + 1))

    def weyl_orbit(self, lam):
        """The Weyl orbit of a weight lam, as the set of `orbit_tree`."""
        return {mu for mu, _j, _depth in self.orbit_tree(lam)}

    # -- Levi projections --------------------------------------------------

    def pm_solver(self, subset):
        """(idx, adj, den) for a frozenset of simple roots: the sorted indices
        and the inverse of the Cartan block on them as adj / den, with adj an
        integer matrix and den > 0 the least scale that makes it one, the
        last invariant factor of the block (`exactlinalg.inverse`)."""
        return self.memo("pm", subset, RootDatum._build_pm, subset)

    def _build_pm(self, subset):
        idx = sorted(subset)
        mat = [[self.alpha[jj][j] for jj in idx] for j in idx]
        adj, den = exactlinalg.inverse(mat) if idx else ([], 1)
        return idx, adj, den

    def solve(self, subset, x, pairings):
        """p_M onto the subset's Levi center, on ints: for an int vector x
        and its `pairings`, (idx, den, c, y) with (idx, adj, den) the solver
        of the subset, c = adj . [<alpha_j, x> for j in idx] and
        y = den x - sum c_j e_j, so that y / den = p_M(x)."""
        idx, adj, den = self.pm_solver(subset)
        b = [pairings[j] for j in idx]
        c = [sum(map(operator.mul, row, b)) for row in adj]
        y = [den * v for v in x]
        for j, cj in zip(idx, c):
            y[j] -= cj
        return idx, den, c, y

    def p_M(self, x, subset):
        """Projection onto the Levi center directions, the W_M-orbit
        average: `solve` of x scaled to ints by the lcm L of its
        denominators, with the coordinates in S as `Fraction`s over den L."""
        x = self.point(x)
        subset = frozenset(subset)
        if not subset:
            return x
        scale, ints = scale_to_ints(x)
        idx, den, _c, y = self.solve(subset, ints, self.pairings(ints))
        out = list(x)
        for j in idx:
            out[j] = Q(y[j], den * scale)
        return tuple(out)

    def central_part(self, torus_coords):
        """The point of the center subspace with the given last n-l
        coordinates: p_M of (0, ..., 0, torus_coords) over all simple roots.
        Its coordinates are `Fraction`s whatever the types given: an int
        and an equal `Fraction` share one cache entry, a float is refused."""
        return self.central_forms(torus_coords)[0]

    def central_forms(self, torus_coords):
        """(z, (L, L z)): the `central_part` z and its int form, as
        `scale_to_ints` gives it, from the one memo entry of z."""
        key = tuple(torus_coords)
        if len(key) != self.n - self.l or not all(
                type(c) is int or type(c) is Q for c in key):
            self.point((0,) * self.l + key)
        return self.memo("central", key, RootDatum._build_central, key)

    def _build_central(self, key):
        scale, x = scale_to_ints((0,) * self.l + key)
        _idx, den, _c, y = self.solve(frozenset(range(self.l)), x,
                                      self.pairings(x))
        z = tuple([Q(v, den * scale) for v in y])
        return z, scale_to_ints(z)

    def levi(self, subset):
        """Levi sub-datum for a set of simple roots, plus a coordinate map.

        Returns (datum, to_levi): the retained simple roots are reindexed
        to come first (in their original relative order), the omega-basis
        is unchanged up to that permutation.  The pair is built once per
        subset and shared; the datum is immutable.
        """
        subset = tuple(sorted(set(subset)))
        if any(not 0 <= j < self.l for j in subset):
            raise ValueError("invalid Levi subset")
        return self.memo("levi", subset, RootDatum._build_levi, subset)

    def _build_levi(self, subset):
        subset = list(subset)
        rest = [i for i in range(self.n) if i not in subset]
        perm = subset + rest  # new position -> old index
        alpha = [
            [self.alpha[perm[i]][j] for j in subset] for i in range(self.n)
        ]
        block = [row[: len(subset)] for row in alpha[: len(subset)]]
        factors = [
            Factor(letter, rank, nodes)
            for letter, rank, nodes in dynkin.classify(block)
        ] if subset else []
        datum = RootDatum(
            self.n, len(subset), alpha, factors, label=f"{self.label}:levi"
        )

        def to_levi(x):
            return tuple(x[perm[i]] for i in range(self.n))

        return datum, to_levi

    # -- lattice quotients -------------------------------------------------

    def _central_kernel(self):
        """Z-basis of X_*(A_G) = {x in Z^n : <alpha_j, x> = 0 for all j}."""
        rows = [[self.alpha[i][j] for i in range(self.n)] for j in range(self.l)]
        if not rows:
            return [
                tuple(int(i == k) for i in range(self.n)) for k in range(self.n)
            ]
        return exactlinalg.integer_kernel(rows)

    def _component_smith(self):
        """(factors, v): the n - l diagonal entries of the Smith form
        u * gens * v = d of the torus tails of a Z-basis of X_*(A_G), and
        v.  RuntimeError unless Lambda_G / X_*(A_G) is finite."""
        m = self.n - self.l
        gens = [v[self.l:] for v in self._central_kernel()]
        d, _u, v = exactlinalg.smith_normal_form(gens)
        facs = [d[i][i] for i in range(min(len(gens), m))]
        if len(facs) != m or 0 in facs:
            raise RuntimeError("component group is not finite")
        return facs, v

    def component_group(self):
        """Invariant factors (each > 1) of Lambda_G / X_*(A_G)."""
        return tuple(f for f in self._component_smith()[0] if f != 1)

    def component_classes(self):
        """One lift in Z^n for every class of the component group."""
        facs, v = self._component_smith()
        m = len(facs)
        vinv = exactlinalg.unimodular_inverse(v) if m else ()
        out = []
        for t in itertools.product(*(range(f) for f in facs)):
            coords = tuple(
                sum(t[k] * vinv[k][i] for k in range(m)) for i in range(m)
            )
            out.append(tuple([0] * self.l) + coords)
        return out


# ---------------------------------------------------------------------------
# Group descriptor grammar


# A factor of `build_group`'s grammar; `_parse_factor` checks its ranges.
# `(?(gext)...)`: an `m=` part and the closing parenthesis follow `Gext(`.
_FACTOR = re.compile(
    r"GL(?P<gl>\d+)|T(?P<t>\d+)|(?P<gext>Gext\()?"
    rf"(?P<letter>[{''.join(dynkin.RANK_BOUNDS)}])(?P<rank>\d+)"
    r"(?(gext)(?:;m=(?:(?P<sign>-?)e(?P<k>\d+)"
    r"|(?P<vec>-?\d+(?:,-?\d+)*)))?\))", re.ASCII)


def _parse_factor(tok):
    """The `_assemble` plan entry of one factor token."""
    tok = tok.strip()
    match = _FACTOR.fullmatch(tok)
    if match is None:
        raise GroupSpecError(f"bad factor {tok!r}")
    gl, t, gext, letter, rank, sign, k, vec = match.groups()
    if gl:
        n = int(gl)
        if n < 1:
            raise GroupSpecError("GLn needs n >= 1")
        if n == 1:
            return ("torus", 1)
        # the derived group of GLn is A_{n-1}, extended by -e_{n-1}
        gext, letter, rank, sign, k = "Gext(", "A", n - 1, "-", n - 1
    elif t:
        if int(t) < 1:
            raise GroupSpecError("torus rank must be >= 1")
        return ("torus", int(t))
    rank = int(rank)
    lo, hi = dynkin.RANK_BOUNDS[letter]
    if not lo <= rank <= hi:
        raise GroupSpecError(f"rank out of bounds for {tok!r}")
    if not gext:
        return ("simple", letter, rank)
    if k:
        if not 1 <= int(k) <= rank:
            raise GroupSpecError(f"basis index out of range in {tok!r}")
        row = [0] * rank
        row[int(k) - 1] = -1 if sign else 1
    elif vec:
        row = [int(c) for c in vec.split(",")]
        if len(row) != rank:
            raise GroupSpecError(f"integer vector in {tok!r} has wrong length")
    else:
        row = _gext_preset_row(letter, rank)
    return ("gext", letter, rank, row)


def _gext_preset_row(letter, rank):
    """Pick m = -e_j maximizing the component group order, the first such j.
    Gext(X; m) has X_*(A_G) = {(x, t) : C^T x + t m = 0}, C the Cartan
    matrix of X.  For m = -e_j and C^-1 = adj / d, x = t (row j of adj) / d:
    integral exactly when t is a multiple of d / gcd(d, row j of adj), the
    order of the group."""
    adj, d = exactlinalg.inverse(dynkin.cartan_matrix(letter, rank))
    orders = [d // math.gcd(d, *adj[j]) for j in range(rank)]
    j = orders.index(max(orders))
    return [-int(i == j) for i in range(rank)]


def _assemble(plan, label):
    """The datum of a list of parsed factors: ("simple", letter, rank),
    ("torus", k) or ("gext", letter, rank, m)."""
    l = sum(p[2] for p in plan if p[0] in ("simple", "gext"))
    n = l + sum(p[1] for p in plan if p[0] == "torus") + sum(
        1 for p in plan if p[0] == "gext"
    )
    alpha = [[0] * l for _ in range(n)]
    factors = []
    col = 0
    torus_row = l
    for p in plan:
        if p[0] == "torus":
            torus_row += p[1]
            continue
        letter, rank = p[1], p[2]
        cm = dynkin.cartan_matrix(letter, rank)
        idx = tuple(range(col, col + rank))
        for a in range(rank):
            for b in range(rank):
                alpha[idx[a]][idx[b]] = cm[a][b]
        factors.append(Factor(letter, rank, idx))
        if p[0] == "gext":
            for b in range(rank):
                alpha[torus_row][idx[b]] = p[3][b]
            torus_row += 1
        col += rank
    return RootDatum(n, l, alpha, factors, label=label)


def build_group(spec):
    """Build a validated RootDatum from a descriptor string.

    Grammar: spec := factor ("*" factor)*
             factor := SCTYPE | "GL" INT | "T" INT
                     | "Gext(" SCTYPE [";m=" INTVEC] ")"
             SCTYPE := LETTER INT, with LETTER a key of dynkin.RANK_BOUNDS
             INTVEC := ["-"] "e" INT | ["-"] INT ("," ["-"] INT)*
             INT := one or more ASCII digits
    Whitespace may stand around each "*" and at the two ends, nowhere else.
    """
    spec = spec.strip()
    if not spec:
        raise GroupSpecError("empty group spec")
    # the grammar admits no '*' inside Gext(...)
    plan = [_parse_factor(t) for t in spec.split("*")]
    return _assemble(plan, label=spec)
