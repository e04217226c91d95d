"""Newton stratum membership conditions, dimensions, codimensions, d_G."""

from dataclasses import dataclass, field

from .chamber import (  # noqa: F401
    NewtonPoint, face_of, newton_point, stratum_of)
from .rationals import NEG_INF, Q, fmt_scalar


@dataclass(frozen=True)
class StratumConditions:
    """Valuation conditions cutting out a stratum (open) or its closure."""

    mu: NewtonPoint
    closed: bool
    relations: tuple  # (index, "<=" or "==", bound)
    datum: object = field(repr=False, compare=False)

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


def index_set(datum, mu):
    """I_mu: simple roots pairing to zero against mu."""
    return face_of(datum, datum.scaled(mu)[1])[0]


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
    """Codimension of the closed stratum of nu inside that of mu, on the
    int forms of `RootDatum.scaled`: each point is scaled once, for the
    order check and for the floors."""
    nu, mu = datum.scaled(nu), datum.scaled(mu)
    if not datum.leq_scaled(nu, mu):
        raise ValueError("codim requires nu <= mu")
    c = _floor_sum(datum, mu) - _floor_sum(datum, nu)
    if c < 0:
        raise RuntimeError(f"negative codimension {c} for nu <= mu")
    return c


def codim_chai(datum, nu, mu):
    """Ceiling form of the codimension, for integral dominant mu.

    Uses the rational fundamental weights (zero on the center), so the
    pairing with mu - nu only sees the semisimple part.  mu and nu are
    scaled once each (`RootDatum.scaled`), and their forms serve the
    dominance and order checks and the sum.
    """
    mu = datum.scaled(mu, integral=True)
    if any(datum.root_pairing(j, mu[1]) < 0 for j in range(datum.l)):
        raise ValueError("codim_chai needs an integral dominant mu")
    nu = datum.scaled(nu)
    if not datum.leq_scaled(nu, mu):
        raise ValueError("codim_chai requires nu <= mu")
    # <varpi_i, mu - nu> = <omega_i, mu - nu> since mu - nu has no central
    # part, and ceil(mu_i - nu_i) = mu_i - floor(nu_i) for an int mu_i
    total = sum(mu[1][:datum.l]) - _floor_sum(datum, nu)
    if total < 0:
        raise RuntimeError(f"negative codimension {total} for nu <= mu")
    return total


def d_G(datum, nu):
    """Sum of fractional parts of the pairings with the extended weights,
    read on the int form (den, ints) of `RootDatum.scaled`: the one
    `Fraction` of sum(v % den) over den (0 when l = 0)."""
    form = datum.scaled(nu)
    return Q(_frac_sum(datum, form), form[0])


def d_levi_check(datum, nu):
    """Lemma-style reduction: d_G computed in nu's own Levi agrees with d_G.

    Both sides read the int form (den, ints) nu carries, and compare den
    times d_G: the Levi side on the datum of `RootDatum.levi`, through its
    coordinate map `to_levi`."""
    nu = newton_point(datum, nu)
    levi_datum, to_levi, _back = datum.levi(nu.levi)
    den, ints = nu.scaled
    return (_frac_sum(levi_datum, (den, to_levi(ints)))
            == _frac_sum(datum, (den, ints)))
