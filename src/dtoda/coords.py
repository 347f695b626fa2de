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

Each public call reads one moment object (`_Moments`) per (pair,
potential, order) that builds d1H and d2H along the pair, M1, M2 and their
power chains once.  Coordinates are `series.residue_matrix` products of M1
and M2 against the chains, and Phi(g), Psi(f) one `series.combine` each of
the same rows; v_0 shares the object at the full pair order, its window.

Gauge monomials (single-variable terms) enter ``time_variables``,
``v_zero`` and ``plemelj_check`` through the optional ``gauge`` argument;
the tau function is only defined for a pure two-variable potential.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
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


class _Moments:
    """Moment series of one (pair, potential, order) and their power chains, built on use.

    ``partials`` is (d1H, d2H) along the pair on (-width, width), ``m``
    is (M1, M2) = (d1H g', d2H f').  ``g_up``/``g_down`` are g**1..g**order
    and the powers of the depth-``depth`` reciprocal ``g_inv``, exact where
    M1 reads them and on (-width, width), where log tau composes Phi(g);
    ``f_up``/``f_down`` likewise against M2 and for Psi(f).
    """

    def __init__(self, pair, ms: MonomialSum, order: int):
        if order > pair.order:
            raise ValueError("coordinate order exceeds pair order")
        self.pair, self.ms, self.order = pair, ms, order
        self.width = _halfwidth(pair, ms, order)
        self.depth = self.width + order + 8  # reciprocal depth of the chains

    @cached_property
    def partials(self) -> Tuple[LaurentSeries, LaurentSeries]:
        return tuple(eval_along(d, self.pair, (-self.width, self.width))
                     for d in (self.ms.d1(), self.ms.d2()))

    @cached_property
    def m(self) -> Tuple[LaurentSeries, LaurentSeries]:
        return tuple(map(S.mul, self.partials, (self.pair.g_prime(), self.pair.f_prime())))

    def _chain(self, base: LaurentSeries, m: LaurentSeries) -> list:
        """Powers exact where their product with m reaches w**-1, and on the window."""
        window = (min(-1 - m.hi_exp, -self.width), max(-1 - m.lo_exp, self.width))
        return S.powers(base, self.order, window)

    g_inv = cached_property(lambda self: S.int_pow(self.pair.g, -1, depth=self.depth))
    f_inv = cached_property(lambda self: S.int_pow(self.pair.f, -1, depth=self.depth))
    g_up = cached_property(lambda self: self._chain(self.pair.g, self.m[0]))
    g_down = cached_property(lambda self: self._chain(self.g_inv, self.m[0]))
    f_up = cached_property(lambda self: self._chain(self.pair.f, self.m[1]))
    f_down = cached_property(lambda self: self._chain(self.f_inv, self.m[1]))


def _time_variables(mo: _Moments):
    (m1, m2), order = mo.m, mo.order
    t, v = {0: S.residue(m1)}, {}
    # res(M1 g^n), res(M1 g^-n), then res(M2 f^n), res(M2 f^-n), n = 1..order
    rg = S.residue_matrix([m1], mo.g_up + mo.g_down)[0].tolist()
    rf = S.residue_matrix([m2], mo.f_up + mo.f_down)[0].tolist()
    for n in range(1, order + 1):
        v[n], t[n] = rg[n - 1], rg[order + n - 1] / n
        t[-n], v[-n] = rf[n - 1] / n, rf[order + n - 1]
    return t, v, -S.residue(m2)


def time_variables(pair, h, order: int, gauge: Sequence[GaugeTerm] = ()):
    """The maps t (|n| <= order, with t[0]) and v (n != 0), plus t0_alt."""
    return _time_variables(_Moments(pair, _total_sum(h, gauge), int(order)))


def _paired_logs(pair, depth: int):
    """log(g/w) and log(f/w) with the branch of log a1 forced to -log b."""
    cg, _, ug = S.split_normalize(pair.g)
    cf, _, uf = S.split_normalize(pair.f)
    lb = cmath.log(cg)
    log_g = S.add(S.constant(lb), S.log1p(ug, depth=depth))
    log_f = S.add(S.constant(-lb), S.log1p(uf, depth=depth))
    return log_g, log_f


def _v_zero(mo: _Moments) -> complex:
    m1, m2 = mo.m
    log_g, log_f = _paired_logs(mo.pair, mo.width)
    h_along = eval_along(mo.ms, mo.pair, (-mo.width, mo.width))
    return S.residue_mul(m1, log_g) + S.residue_mul(m2, log_f) - S.coeff(h_along, 0)


def v_zero(pair, h, gauge: Sequence[GaugeTerm] = ()) -> complex:
    """res(M1 log(g/w) + M2 log(f/w) - potential(g, f)/w)."""
    return _v_zero(_Moments(pair, _total_sum(h, gauge), pair.order))


def plemelj_check(pair, h, order: int, gauge: Sequence[GaugeTerm] = ()) -> float:
    """Max defect of the two basis expansions against (t, v, t_0)."""
    order = int(order)
    mo = _Moments(pair, _total_sum(h, gauge), order)
    t, v, _ = _time_variables(mo)

    def expansion(y, base, base_inv):
        """res(y * base**(-k-1)) at modes k = -order..order, on chains exact where y reads them."""
        window = (-1 - y.hi_exp, -1 - y.lo_exp)
        rows = (S.powers(base, order - 1, window)[::-1] + [S.constant(1.0)]
                + S.powers(base_inv, order + 1, window))
        return S.residue_matrix([y], rows)[0]

    a1, a2 = mo.partials
    got_a = expansion(S.mul(S.mul(a1, pair.g), pair.g_prime()), pair.g, mo.g_inv)
    got_b = expansion(S.mul(S.scale(S.mul(a2, pair.f), -1.0), pair.f_prime()), pair.f, mo.f_inv)
    ks = range(-order, order + 1)
    want_a = [k * t[k] if k > 0 else t[0] if k == 0 else v[-k] for k in ks]
    want_b = [-v[-k] if k > 0 else t[0] if k == 0 else k * t[k] for k in ks]
    return float(np.max(np.abs(np.concatenate([got_a - want_a, got_b - want_b]))))


def _log_tau(mo: _Moments, h: HamiltonianH, t: Dict[int, complex],
             v: Dict[int, complex], v0: complex):
    pair, order, window = mo.pair, mo.order, (-mo.width, mo.width)
    (m1, m2), z1_part = mo.m, t[0] * v0 / 2.0

    ns, cut = range(1, order + 1), lambda rows: [S.clip(r, *window) for r in rows]
    phi_g = S.clip(S.combine([v[n] / n for n in ns], cut(mo.g_down)), *window)
    psi_f = S.clip(S.combine([v[-n] / n for n in ns], cut(mo.f_up)), *window)
    z2_part = (S.residue_mul(m1, phi_g) + S.residue_mul(m2, psi_f)) / 2.0

    j1_along, j2_along = (eval_along(j, pair, window) for j in j_pair(h))
    z3_part = (S.residue_mul(j1_along, pair.g_prime())
               + S.residue_mul(j2_along, pair.f_prime())) / 4.0

    z2_closed = sum(t[n] * v[n] + t[-n] * v[-n] for n in ns) / 2.0
    log_t = z1_part + z2_part + z3_part
    return z1_part, z2_part, z3_part, log_t, z2_closed


def log_tau(pair, h: HamiltonianH, t: Dict[int, complex], v: Dict[int, complex],
            v0: complex):
    """(Z1, Z2, Z3, logT, z2_closed) for a pure two-variable potential."""
    order = max(n for n in t if n >= 0)
    return _log_tau(_Moments(pair, h.as_sum(), order), h, t, v, v0)


def toda_coordinates(pair, h: HamiltonianH, order: int | None = None) -> TodaCoordinates:
    """Assemble the full coordinate snapshot for a pure potential."""
    order = pair.order if order is None else int(order)
    mo = _Moments(pair, h.as_sum(), order)
    t, v, t0_alt = _time_variables(mo)
    v0 = _v_zero(mo if order == pair.order else _Moments(pair, mo.ms, pair.order))
    z1_part, z2_part, z3_part, log_t, z2_closed = _log_tau(mo, h, t, v, v0)
    return TodaCoordinates(order=order, t=t, v=v, v0=v0, t0_alt=t0_alt, logT=log_t,
                           z_parts=(z1_part, z2_part, z3_part), z2_closed=z2_closed)
