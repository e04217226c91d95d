"""Newton stratum membership conditions, dimensions, codimensions, d_G."""

from .chamber import NewtonPoint, newton_point, stratum_of  # noqa: F401
from .rationals import NEG_INF, Q, fmt_scalar
from .rootdata import record


@record("datum")
class StratumConditions:
    """Valuation conditions cutting out a stratum (open) or its closure."""

    mu: NewtonPoint
    closed: bool
    relations: tuple  # (index, "<=" or "==", bound)
    datum: object  # out of repr, == and hash

    def accepts(self, d):
        """Whether the valuation vector d (-inf allowed in the first l
        slots) meets every condition; ValueError on any other point."""
        d = self.datum.point(d, neg_inf=True)
        for i, rel, bound in self.relations:
            v = d[i]
            if rel == "==":
                if v is NEG_INF or v != bound:
                    return False
            else:
                if v is not NEG_INF and v > bound:
                    return False
        return True

    def to_json(self):
        return [
            {"i": i + 1, "rel": "<=" if rel == "<=" else "=",
             "bound": fmt_scalar(bound)}
            for i, rel, bound in self.relations
        ]


def stratum_conditions(datum, mu, closed):
    """Condition system for the stratum of mu (closed=True: its closure)."""
    mu = newton_point(datum, mu)
    point, imu = mu.point, mu.levi
    rels = []
    for i in range(datum.n):
        if i >= datum.l:
            rels.append((i, "==", point[i]))
        elif closed or i in imu:
            rels.append((i, "<=", point[i]))
        else:
            rels.append((i, "==", point[i]))
    return StratumConditions(mu, closed, tuple(rels), datum)


def dim_leq(datum, mu):
    """dim of the closed stratum: sum of floors of the first l coordinates."""
    return _floor_sum(datum, datum.scaled(mu))


def _floor_sum(datum, form):
    """The sum of the floors of the first l coordinates of the point of an
    int form (den, ints) from `RootDatum.scaled`: sum(v // den)."""
    den, ints = form
    return sum(v // den for v in ints[:datum.l])


def _frac_sum(datum, form):
    """den times the sum of the fractional parts of the first l
    coordinates of the point of an int form (den, ints): sum(v % den)."""
    den, ints = form
    return sum(v % den for v in ints[:datum.l])


def codim(datum, nu, mu):
    """Codimension of the closed stratum of nu inside that of mu: `_codim`
    of the int forms of `RootDatum.scaled`, each point scaled once."""
    return _codim(datum, datum.scaled(nu), datum.scaled(mu), "codim")


def codim_chai(datum, nu, mu):
    """Ceiling form of the codimension, for integral dominant mu.

    Uses the rational fundamental weights (zero on the center), so the
    pairing with mu - nu only sees the semisimple part, and
    ceil(mu_i - nu_i) = mu_i - floor(nu_i) for an int mu_i: `codim`'s
    floor sums, on the int forms of `RootDatum.scaled`.
    """
    mu = datum.scaled(mu)
    if mu[0] != 1:
        raise ValueError("expected an integral point")
    if any(p < 0 for p in datum.pairings(mu[1])):
        raise ValueError("codim_chai needs an integral dominant mu")
    return _codim(datum, datum.scaled(nu), mu, "codim_chai")


def _codim(datum, nu, mu, name):
    """The codimension for two int forms; the order check names `name`."""
    if not datum.leq_scaled(nu, mu):
        raise ValueError(f"{name} requires nu <= mu")
    c = _floor_sum(datum, mu) - _floor_sum(datum, nu)
    if c < 0:
        raise RuntimeError(f"negative codimension {c} for nu <= mu")
    return c


def d_G(datum, nu):
    """Sum of fractional parts of the pairings with the extended weights,
    read on the int form (den, ints) of `RootDatum.scaled`: the one
    `Fraction` of sum(v % den) over den (0 when l = 0)."""
    form = datum.scaled(nu)
    return Q(_frac_sum(datum, form), form[0])


def d_levi_check(datum, nu):
    """Lemma-style reduction: d_G computed in nu's own Levi agrees with d_G.

    The Levi of nu's face S keeps the extended weights of index in S, so
    its d_G sums the fractional parts of nu_j, j in S; nu is integral off
    S.  Both sums are read on the int form (den, ints) nu carries."""
    nu = newton_point(datum, nu)
    if any(not 0 <= j < datum.l for j in nu.levi):
        raise ValueError("invalid Levi subset")
    den, ints = nu.scaled
    return sum(ints[j] % den for j in nu.levi) == _frac_sum(datum, nu.scaled)
