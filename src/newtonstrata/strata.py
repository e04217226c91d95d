"""Newton stratum membership conditions, dimensions, codimensions, d_G."""

from dataclasses import dataclass, field

from .chamber import (  # noqa: F401
    NewtonPoint, face_of, newton_point, point_of, stratum_of)
from .rationals import NEG_INF, Q, fmt_scalar, qfloor, scale_to_ints


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
    return face_of(datum, datum.point(point_of(mu)))[0]


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
    point = datum.point(point_of(mu))
    return int(sum(qfloor(point[i]) for i in range(datum.l)))


def codim(datum, nu, mu):
    """Codimension of the closed stratum of nu inside that of mu."""
    nu_pt, mu_pt = point_of(nu), point_of(mu)
    if not datum.leq(nu_pt, mu_pt):
        raise ValueError("codim requires nu <= mu")
    c = dim_leq(datum, mu) - dim_leq(datum, nu)
    if c < 0:
        raise RuntimeError(f"negative codimension {c} for nu <= mu")
    return c


def codim_chai(datum, nu, mu):
    """Ceiling form of the codimension, for integral dominant mu.

    Uses the rational fundamental weights (zero on the center), so the
    pairing with mu - nu only sees the semisimple part.
    """
    nu_pt, mu_pt = point_of(nu), point_of(mu)
    mu_int = datum.point(mu_pt, integral=True)
    if not datum.is_dominant(mu_int):
        raise ValueError("codim_chai needs an integral dominant mu")
    if not datum.leq(nu_pt, mu_pt):
        raise ValueError("codim_chai requires nu <= mu")
    # <varpi_i, mu - nu> = <omega_i, mu - nu> since mu - nu has no central
    # part, and ceil(mu_i - nu_i) = mu_i - floor(nu_i) for an int mu_i
    total = sum(mu_int[i] - qfloor(nu_pt[i]) for i in range(datum.l))
    if total < 0:
        raise RuntimeError(f"negative codimension {total} for nu <= mu")
    return total


def d_G(datum, nu):
    """Sum of fractional parts of the pairings with the extended weights.

    The first l coordinates are scaled once to ints v over their common
    denominator den, and the sum is the one `Fraction` of sum(v % den)
    over den (0 when l = 0)."""
    point = datum.point(point_of(nu))
    den, ints = scale_to_ints(point[:datum.l])
    return Q(sum(v % den for v in ints), den)


def d_levi_check(datum, nu):
    """Lemma-style reduction: d_G computed in nu's own Levi agrees with d_G."""
    nu = newton_point(datum, nu)
    levi_datum, to_levi, _back = datum.levi(nu.levi)
    return d_G(levi_datum, to_levi(nu.point)) == d_G(datum, nu.point)
