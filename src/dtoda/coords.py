"""Time/velocity coordinates, the v_0 potential, and the tau function.

Given a conformal-map pair (g, f) and a monomial potential, every quantity
here is a residue of an exact truncated-Laurent product in w:

* ``time_variables`` — with M1 = d1(potential)(g, f) * g' and
  M2 = d2(potential)(g, f) * f',

      t_n  = res(M1 * g^-n) / n      v_n  = res(M1 * g^n)       (n >= 1)
      t_-n = res(M2 * f^n) / n       v_-n = res(M2 * f^-n)
      t_0  = res(M1)                 t0_alt = -res(M2),

  the two t_0 expressions agreeing for any valid pair/potential.

* ``v_zero`` — res(M1 * log(g/w) + M2 * log(f/w) - potential(g, f)/w),
  with the two logarithm branches paired: log of f's linear coefficient is
  taken as minus the log of g's, never computed independently.

* ``plemelj_check`` — expands g*d1(potential)(g, f) in the basis {g^k} and
  -f*d2(potential)(g, f) in {f^k} by residues and compares the
  coefficients against (n*t_n, t_0, v_n) and (-n*t_-n, t_0, -v_-n); the
  returned defect is a dual-path consistency measure for the whole
  coordinate construction.

* ``log_tau`` — Z1 = t_0*v_0/2; Z2 = (res(M1*Phi(g)) + res(M2*Psi(f)))/2
  where Phi(z) = sum v_n/n z^-n and Psi(z) = sum v_-n/n z^n; Z3 =
  (res(J1(g,f)*g') + res(J2(g,f)*f'))/4 with (J1, J2) the antiderivative
  pair; and the closed form z2_closed = (sum t_n v_n + sum t_-n v_-n)/2,
  which Z2 reproduces through the series composition.

Coordinates are entries of `series.residue_matrix` products of a moment
series against whole power chains of g and f, clipped to its read window
(`_read_chains`); Phi(g) and Psi(f) are one `series.combine` each.

Gauge monomials (single-variable terms) enter ``time_variables``,
``v_zero`` and ``plemelj_check`` through the optional ``gauge`` argument;
the tau function is only defined for a pure two-variable potential.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from . import series as S
from .series import LaurentSeries
from .hamiltonian import GaugeTerm, HamiltonianH, MonomialSum, eval_along, gauge_sum, j_pair


@dataclass(frozen=True)
class TodaCoordinates:
    """Full coordinate snapshot of a pair under a potential.

    ``t`` covers |n| <= order (including n = 0), ``v`` covers nonzero
    |n| <= order.  ``t0_alt`` is the second contour expression for t_0 and
    agrees with ``t[0]`` to ~1e-10 for healthy inputs; ``z2_closed`` is
    the closed form that ``z_parts[1]`` reproduces.
    """

    order: int
    t: Dict[int, complex]
    v: Dict[int, complex]
    v0: complex
    t0_alt: complex
    logT: complex
    z_parts: Tuple[complex, complex, complex]
    z2_closed: complex


def _total_sum(h, gauge: Sequence[GaugeTerm]) -> MonomialSum:
    ms = h.as_sum() if isinstance(h, HamiltonianH) else h
    if gauge:
        ms = ms + gauge_sum(gauge)
    return ms


def _halfwidth(pair, ms: MonomialSum, order: int) -> int:
    """Window half-width for residue work: structural support plus a
    buffer that pushes clipped-tail contributions below 1e-13."""
    spread = max((abs(mu) + abs(nu) for mu, nu, _ in ms.terms), default=1)
    return pair.order + order + 2 * spread + 32


def _m_series(pair, ms: MonomialSum, width: int):
    """M1 = d1(ms)(g, f) * g' and M2 = d2(ms)(g, f) * f' on (-width, width)."""
    a1 = eval_along(ms.d1(), pair, (-width, width))
    a2 = eval_along(ms.d2(), pair, (-width, width))
    return S.mul(a1, pair.g_prime()), S.mul(a2, pair.f_prime())


def _read_chains(m: LaurentSeries, base: LaurentSeries, n_up: int, n_down: int,
                 depth: int) -> Tuple[list, list]:
    """base**1..base**n_up and base**-1..base**-n_down (the depth-``depth``
    reciprocal's powers), exact on the exponents whose product with m
    reaches w**-1 and clipped near them (`series.powers`)."""
    window = (-1 - m.hi_exp, -1 - m.lo_exp)
    return (S.powers(base, n_up, window),
            S.powers(S.int_pow(base, -1, depth=depth), n_down, window))


def time_variables(pair, h, order: int, gauge: Sequence[GaugeTerm] = ()):
    """The maps t (|n| <= order, with t[0]) and v (n != 0), plus t0_alt."""
    order = int(order)
    if order > pair.order:
        raise ValueError("coordinate order exceeds pair order")
    total = _total_sum(h, gauge)
    width = _halfwidth(pair, total, order)
    m1, m2 = _m_series(pair, total, width)
    depth = width + order + 8
    t: Dict[int, complex] = {0: S.residue(m1)}
    v: Dict[int, complex] = {}
    # res(M1 g^n), res(M1 g^-n), then res(M2 f^n), res(M2 f^-n), n = 1..order
    g_up, g_down = _read_chains(m1, pair.g, order, order, depth)
    f_up, f_down = _read_chains(m2, pair.f, order, order, depth)
    rg = S.residue_matrix([m1], g_up + g_down)[0].tolist()
    rf = S.residue_matrix([m2], f_up + f_down)[0].tolist()
    for n in range(1, order + 1):
        v[n], t[n] = rg[n - 1], rg[order + n - 1] / n
        t[-n], v[-n] = rf[n - 1] / n, rf[order + n - 1]
    return t, v, -S.residue(m2)


def _paired_logs(pair, depth: int):
    """log(g/w) and log(f/w) with the branch of log a1 forced to -log b."""
    cg, _, ug = S.split_normalize(pair.g)
    cf, _, uf = S.split_normalize(pair.f)
    lb = cmath.log(cg)
    log_g = S.add(S.constant(lb), S.log1p(ug, depth=depth))
    log_f = S.add(S.constant(-lb), S.log1p(uf, depth=depth))
    return log_g, log_f


def v_zero(pair, h, gauge: Sequence[GaugeTerm] = ()) -> complex:
    """res(M1 log(g/w) + M2 log(f/w) - potential(g, f)/w)."""
    total = _total_sum(h, gauge)
    width = _halfwidth(pair, total, pair.order)
    m1, m2 = _m_series(pair, total, width)
    log_g, log_f = _paired_logs(pair, width)
    h_along = eval_along(total, pair, (-width, width))
    return (S.residue_mul(m1, log_g) + S.residue_mul(m2, log_f)
            - S.coeff(h_along, 0))


def plemelj_check(pair, h, order: int, gauge: Sequence[GaugeTerm] = ()) -> float:
    """Max defect of the two basis expansions against (t, v, t_0)."""
    order = int(order)
    total = _total_sum(h, gauge)
    t, v, _ = time_variables(pair, h, order, gauge)
    width = _halfwidth(pair, total, order)
    x1 = S.mul(eval_along(total.d1(), pair, (-width, width)), pair.g)
    x2 = S.scale(S.mul(eval_along(total.d2(), pair, (-width, width)), pair.f), -1.0)
    y1, y2 = S.mul(x1, pair.g_prime()), S.mul(x2, pair.f_prime())
    depth = width + order + 8
    one = [S.constant(1.0)]
    # expansion coefficient at mode k = -order..order: res(y * base**(-k-1))
    g_up, g_down = _read_chains(y1, pair.g, order - 1, order + 1, depth)
    f_up, f_down = _read_chains(y2, pair.f, order - 1, order + 1, depth)
    got_a = S.residue_matrix([y1], g_up[::-1] + one + g_down)[0]
    got_b = S.residue_matrix([y2], f_up[::-1] + one + f_down)[0]
    ks = range(-order, order + 1)
    want_a = [k * t[k] if k > 0 else t[0] if k == 0 else v[-k] for k in ks]
    want_b = [-v[-k] if k > 0 else t[0] if k == 0 else k * t[k] for k in ks]
    return float(np.max(np.abs(np.concatenate([got_a - want_a, got_b - want_b]))))


def log_tau(pair, h: HamiltonianH, t: Dict[int, complex], v: Dict[int, complex],
            v0: complex):
    """(Z1, Z2, Z3, logT, z2_closed) for a pure two-variable potential."""
    order = max(n for n in t if n >= 0)
    ms = h.as_sum()
    width = _halfwidth(pair, ms, order)
    m1, m2 = _m_series(pair, ms, width)
    depth = width + order + 8

    z1_part = t[0] * v0 / 2.0

    ns, window = range(1, order + 1), (-width, width)
    g_inv = S.int_pow(pair.g, -1, depth=depth)
    phi_g = S.clip(S.combine([v[n] / n for n in ns], S.powers(g_inv, order, window)), *window)
    psi_f = S.clip(S.combine([v[-n] / n for n in ns], S.powers(pair.f, order, window)), *window)
    z2_part = (S.residue_mul(m1, phi_g) + S.residue_mul(m2, psi_f)) / 2.0

    j1_along, j2_along = (eval_along(j, pair, window) for j in j_pair(h))
    z3_part = (S.residue_mul(j1_along, pair.g_prime())
               + S.residue_mul(j2_along, pair.f_prime())) / 4.0

    z2_closed = sum(t[n] * v[n] + t[-n] * v[-n] for n in ns) / 2.0
    log_t = z1_part + z2_part + z3_part
    return z1_part, z2_part, z3_part, log_t, z2_closed


def toda_coordinates(pair, h: HamiltonianH, order: int | None = None) -> TodaCoordinates:
    """Assemble the full coordinate snapshot for a pure potential."""
    if order is None:
        order = pair.order
    order = int(order)
    t, v, t0_alt = time_variables(pair, h, order)
    v0 = v_zero(pair, h)
    z1_part, z2_part, z3_part, log_t, z2_closed = log_tau(pair, h, t, v, v0)
    return TodaCoordinates(order=order, t=t, v=v, v0=v0, t0_alt=t0_alt,
                           logT=log_t, z_parts=(z1_part, z2_part, z3_part),
                           z2_closed=z2_closed)
