"""Closed forms for the single-monomial potential z1^mu * z2^{-nu}.

For H = z1^mu z2^{-nu} the two moment generators collapse to one series
each and every coordinate becomes a single residue:

    t(0)  = mu * res(g^{mu-1} f^{-nu} g'),
    t(n)  = (mu/n)  * res(g^{mu-n-1} f^{-nu} g'),        n >= 1,
    t(-n) = (-nu/n) * res(g^{mu} f^{-nu+n-1} f'),        n >= 1,
    v(n)  = mu  * res(g^{mu+n-1} f^{-nu} g'),
    v(-n) = -nu * res(g^{mu} f^{-nu-n-1} f'),
    v0    = res(g^mu f^{-nu} [mu (g'/g) log(g/w) - nu (f'/f) log(f/w) - 1/w]).

The same structure turns the moment expansions into two one-line series
identities,

    mu * g^mu f^{-nu} = sum n t(n) g^n + t(0) + sum v(n) g^{-n},
    nu * g^mu f^{-nu} = -sum n t(-n) f^{-n} + t(0) - sum v(-n) f^n,

whose g'/g- and f'/f-weighted difference integrates to a third identity
with logarithmic terms; ``generating_identity_check`` verifies all three
(the integrated one in differentiated form, reporting the integration
constant separately rather than asserting a convention for it).  The
residues are two `series.residue_matrix` rows and each expansion one
`series.combine`, over power chains (`_chains`) left unclipped: the
identities are compared on whole reliable windows.  `context.PairContext`
hands the chains to `closed_form` and `generating_identity`.

Halving the two weighted contour evaluations

    (1/2pi i) oint mu g^{2mu-1} f^{-2nu} g' dw = (2 sum n t(n) v(n) + t(0)^2)/mu

(and its f-side mirror) gives the closed-form log tau

    -1/8 (1/mu + 1/nu) t(0)^2 + t(0) v0 / 2
        + 1/2 sum (1 - n/(2 mu)) t(n) v(n)
        + 1/2 sum (1 - n/(2 nu)) t(-n) v(-n),

with the mode index n inside the weights — dropping it fails the
comparison against the general assembly at the 1e-3 level.  Equating the
two contour evaluations yields the nontrivial identity

    2 nu sum n t(n) v(n) + nu t(0)^2 = 2 mu sum n t(-n) v(-n) + mu t(0)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from . import plan
from . import series as S
from .coords import Moments, TodaCoordinates, _paired_logs
from .hamiltonian import HamiltonianH


@dataclass(frozen=True)
class MonomialCase:
    """Single-term potential z1^mu * z2^{-nu} with unit coefficient."""

    mu: int
    nu: int

    def __post_init__(self):
        if self.mu == 0 or self.nu == 0:
            raise ValueError("monomial case needs nonzero exponents")

    @property
    def h(self) -> HamiltonianH:
        return HamiltonianH.of((self.mu, self.nu, 1.0))


def _chains(pair, mu: int, nu: int, order: int):
    """Chains k -> base**k of g and f, unclipped, for every residue above."""
    ms = MonomialCase(mu, nu).h.as_sum()
    if order < 1 or pair.order <= abs(mu) + abs(nu) + order:
        raise ValueError(
            "window budget: pair order must exceed |mu| + |nu| + N")
    depth = plan.chain_depth(pair, ms, order)
    chains = []
    for base, length in ((pair.g, order + abs(mu) + 1), (pair.f, order + abs(nu) + 1)):
        down = S.powers(S.int_pow(base, -1, depth=depth), length)
        chains.append({0: S.constant(1.0), **dict(enumerate(S.powers(base, length), 1)),
                       **{-n: p for n, p in enumerate(down, 1)}})
    return tuple(chains)


def special_coords(pair, mu: int, nu: int, order: int | None = None) -> TodaCoordinates:
    """Coordinate snapshot from the closed-form monomial residues, at
    ``order`` (by default `plan.monomial_order`).

    Same residues as the general moment path, assembled through explicit
    power chains of g and f; log tau is taken from the shared general
    assembly so that ``special_logtau`` remains an independent closed
    form to compare against.
    """
    case = MonomialCase(int(mu), int(nu))
    order = plan.monomial_order(pair, case.mu, case.nu) if order is None else int(order)
    return closed_form(pair, case.mu, case.nu, _chains(pair, case.mu, case.nu, order),
                       Moments(pair, case.h, (), order))


def closed_form(pair, mu: int, nu: int, chains, moments: Moments) -> TodaCoordinates:
    """`special_coords` on the monomial's ``chains`` and general ``moments``."""
    order, (gp, fp) = moments.order, chains
    g_side = S.mul(fp[-nu], pair.g_prime())
    f_side = S.mul(gp[mu], pair.f_prime())

    # rg[order + j] = res(g^(mu-1+j) g_side), rf[order + j] = res(f^(-nu-1+j) f_side)
    js = range(-order, order + 1)
    rg = S.residue_matrix([g_side], [gp[mu - 1 + j] for j in js])[0].tolist()
    rf = S.residue_matrix([f_side], [fp[-nu - 1 + j] for j in js])[0].tolist()
    t: Dict[int, complex] = {0: mu * rg[order]}
    t0_alt = nu * rf[order]
    v: Dict[int, complex] = {}
    for n in range(1, order + 1):
        t[n], t[-n] = (mu / n) * rg[order - n], (-nu / n) * rf[order + n]
        v[n], v[-n] = mu * rg[order + n], -nu * rf[order - n]

    log_g, log_f = _paired_logs(pair, moments.width)
    v0 = (mu * S.residue_mul(log_g, S.mul(gp[mu - 1], g_side))
          - nu * S.residue_mul(log_f, S.mul(fp[-nu - 1], f_side))
          - S.mul(gp[mu], fp[-nu]).coeff(0))

    z1_part, z2_part, z3_part, log_t, z2_closed = moments.log_tau(t, v, v0)
    return TodaCoordinates(order=order, t=t, v=v, v0=v0, t0_alt=t0_alt,
                           logT=log_t, z_parts=(z1_part, z2_part, z3_part),
                           z2_closed=z2_closed)


def nontrivial_identity(coords: TodaCoordinates, mu: int, nu: int) -> float:
    """|2 nu sum n t(n)v(n) + nu t0^2 - 2 mu sum n t(-n)v(-n) - mu t0^2|."""
    t0_sq = coords.t[0] * coords.t[0]
    pos = sum(n * coords.t[n] * coords.v[n] for n in range(1, coords.order + 1))
    neg = sum(n * coords.t[-n] * coords.v[-n] for n in range(1, coords.order + 1))
    return abs((2 * nu * pos + nu * t0_sq) - (2 * mu * neg + mu * t0_sq))


def special_logtau(coords: TodaCoordinates, mu: int, nu: int) -> complex:
    """Closed-form log tau of the monomial case from t, v and v0 alone."""
    mu, nu = int(mu), int(nu)
    t0 = coords.t[0]
    out = -0.125 * (1.0 / mu + 1.0 / nu) * t0 * t0 + 0.5 * t0 * coords.v0
    for n in range(1, coords.order + 1):
        out += 0.5 * (1.0 - n / (2.0 * mu)) * coords.t[n] * coords.v[n]
        out += 0.5 * (1.0 - n / (2.0 * nu)) * coords.t[-n] * coords.v[-n]
    return out


@dataclass(frozen=True)
class GeneratingReport:
    """Per-form residuals of the moment-expansion identity.

    ``g_side`` and ``f_side`` compare the whole truncated expansions of
    mu*g^mu f^{-nu} and nu*g^mu f^{-nu} coefficientwise; their residual
    is dominated by the first dropped expansion term at the reliability
    edge.  ``derivative`` compares the w-derivative of g^mu f^{-nu}
    against the termwise-differentiated expansion, whose certified
    window excludes those edge coefficients, so it reaches much smaller
    residuals at the same budget.  ``offset`` is the w^0 constant of
    integration left between g^mu f^{-nu} and the integrated right-hand
    side, reported rather than asserted because the identity only fixes
    that combination up to a constant (exactly 1 on the identity pair).
    """

    g_side: float
    f_side: float
    derivative: float
    offset: complex

    @property
    def residual(self) -> float:
        return max(self.g_side, self.f_side, self.derivative)


def generating_identity_check(pair, coords: TodaCoordinates, mu: int,
                              nu: int) -> GeneratingReport:
    """Residuals of the moment expansions and their integrated form."""
    case = MonomialCase(int(mu), int(nu))
    return generating_identity(pair, coords, case.mu, case.nu,
                               _chains(pair, case.mu, case.nu, coords.order))


def generating_identity(pair, coords: TodaCoordinates, mu: int, nu: int,
                        chains) -> GeneratingReport:
    """`generating_identity_check` on the `_chains` at ``coords.order``."""
    order, (gp, fp) = coords.order, chains
    t, v, t0 = coords.t, coords.v, coords.t[0]

    power = S.mul(gp[mu], fp[-nu])
    ns = range(1, order + 1)
    expand_g, expand_f = [(t0, gp[0])], [(t0, fp[0])]
    for n in ns:
        expand_g += [(n * t[n], gp[n]), (v[n], gp[-n])]
        expand_f += [(-n * t[-n], fp[-n]), (-v[-n], fp[n])]
    g_side = S.max_abs_diff_reliable(S.scale(power, mu), S.combine(*zip(*expand_g)))
    f_side = S.max_abs_diff_reliable(S.scale(power, nu), S.combine(*zip(*expand_f)))

    # differentiated integrated form: the log-derivative terms t0*(g'/g)
    # and t0*(f'/f) enter with opposite signs and their 1/w pieces cancel
    g_prime, f_prime = pair.g_prime(), pair.f_prime()
    deriv = [(t0, S.mul(g_prime, gp[-1])), (-t0, S.mul(f_prime, fp[-1]))]
    for n in ns:
        deriv += [(n * t[n], S.mul(gp[n - 1], g_prime)),
                  (v[n], S.mul(gp[-n - 1], g_prime)),
                  (n * t[-n], S.mul(fp[-n - 1], f_prime)),
                  (v[-n], S.mul(fp[n - 1], f_prime))]
    deriv_defect = S.max_abs_diff_reliable(S.derivative(power), S.combine(*zip(*deriv)))

    log_g, log_f = _paired_logs(pair, plan.halfwidth(pair, MonomialCase(mu, nu).h.as_sum(), order))
    integrated = [(t0, log_g), (-t0, log_f)]
    for n in ns:
        integrated += [(t[n], gp[n]), (-v[n] / n, gp[-n]),
                       (-t[-n], fp[-n]), (v[-n] / n, fp[n])]
    offset = S.sub(power, S.combine(*zip(*integrated))).coeff(0)
    return GeneratingReport(g_side=float(g_side), f_side=float(f_side),
                            derivative=float(deriv_defect),
                            offset=complex(offset))
