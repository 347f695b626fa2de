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

A moment object (`Moments`) per (pair, potential, order) builds d1H,
d2H, M1, M2 along the pair and each coordinate once, by
`series.residue_matrix` products against rows of g^{+-k} and f^{+-k} and
one `series.combine` each for Phi(g), Psi(f); v_0 is read at the full
pair order.  The rows are blocks (`series.Rows.chain`) of the one chain
per sign that g and f keep, each cut to its reader's window.  The
public functions build their own moment objects; `context.PairContext`
shares them.

The potential is one `hamiltonian.MonomialSum`: gauge monomials
(single-variable terms) enter as its terms, ``h + MonomialSum.of(*gauge)``.
The tau function is only defined for a pure two-variable potential, so
``log_tau`` of a gauged one raises `hamiltonian.LogObstructionError`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from . import series as S
from .series import LaurentSeries
from . import plan
from .hamiltonian import HamiltonianH, MonomialSum, eval_along, j_pair


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


class Moments:
    """Moment series of one (pair, potential, order) and the coordinates
    read off them, each built on first use.

    ``partials`` is (d1H, d2H) along the pair on (-width, width), ``m``
    is (M1, M2) = (d1H g', d2H f').  ``g_up``/``g_down`` are the blocks of
    g**1..g**order and g**-1..g**-order exact where M1 reads them and cut
    there (`block`), ``f_up``/``f_down`` likewise against M2; ``g_down`` and
    ``f_up`` also on (-width, width), where log tau composes Phi(g), Psi(f).
    ``times`` is (t, v, t0_alt) and reads all four; ``v0``, read at the
    full pair order, pairs M1 and M2 with ``logs`` = (log(g/w), log(f/w))
    and subtracts H(g, f) (``h_along``)/w.
    """

    def __init__(self, pair, h: MonomialSum, order: int):
        if order > pair.order:
            raise ValueError("coordinate order exceeds pair order")
        self.pair, self.h, self.order = pair, h, order
        self.width = plan.halfwidth(pair, h, order)

    @cached_property
    def partials(self) -> Tuple[LaurentSeries, LaurentSeries]:
        return tuple(eval_along(d, self.pair, (-self.width, self.width))
                     for d in (self.h.d1(), self.h.d2()))

    @cached_property
    def m(self) -> Tuple[LaurentSeries, LaurentSeries]:
        return tuple(map(S.mul, self.partials, (self.pair.g_prime(), self.pair.f_prime())))

    def block(self, base: LaurentSeries, n: int, m: LaurentSeries, wide: bool = False) -> S.Rows:
        """Rows of base**1..base**n (n < 0: base**-1..) exact where their product
        with m reaches w**-1, and if ``wide`` on (-width, width), cut there."""
        width = self.width if wide else -S.POS_INF
        return S.Rows.chain(base, n, min(-1 - m.hi_exp, -width), max(-1 - m.lo_exp, width))

    g_up = cached_property(lambda self: self.block(self.pair.g, self.order, self.m[0]))
    g_down = cached_property(lambda self: self.block(self.pair.g, -self.order, self.m[0], True))
    f_up = cached_property(lambda self: self.block(self.pair.f, self.order, self.m[1], True))
    f_down = cached_property(lambda self: self.block(self.pair.f, -self.order, self.m[1]))

    @cached_property
    def times(self):
        m1, m2 = self.m
        # res(M1 g^-n), res(M2 f^n), res(M1 g^n), res(M2 f^-n), n = 1..order
        tg = S.residue_matrix([m1], self.g_down)[0].tolist()
        tf = S.residue_matrix([m2], self.f_up)[0].tolist()
        vg = S.residue_matrix([m1], self.g_up)[0].tolist()
        vf = S.residue_matrix([m2], self.f_down)[0].tolist()
        t, v = {0: m1.residue()}, {}
        for n in range(1, self.order + 1):
            t[n], t[-n] = tg[n - 1] / n, tf[n - 1] / n
            v[n], v[-n] = vg[n - 1], vf[n - 1]
        return t, v, -m2.residue()

    logs = cached_property(lambda self: _paired_logs(self.pair, self.width))
    h_along = cached_property(lambda self: eval_along(self.h, self.pair, (-self.width, self.width)))

    @cached_property
    def v0(self) -> complex:
        (m1, m2), (log_g, log_f) = self.m, self.logs
        return S.residue_mul(m1, log_g) + S.residue_mul(m2, log_f) - self.h_along.coeff(0)

    @cached_property
    def plemelj(self) -> float:
        pair, order = self.pair, self.order
        t, v, _ = self.times

        def expansion(y, base):
            """res(y * base**(-k-1)), k = -order..order, on rows exact where y reads them."""
            window = (-1 - y.hi_exp, -1 - y.lo_exp)
            rows = [S.Rows.chain(base, order - 1, *window)[::-1], S.constant(1.0),
                    S.Rows.chain(base, -order - 1, *window)]
            return S.residue_matrix([y], S.Rows.of(rows))[0]

        a1, a2 = self.partials
        got_a = expansion(S.mul(S.mul(a1, pair.g), pair.g_prime()), pair.g)
        got_b = expansion(S.mul(S.scale(S.mul(a2, pair.f), -1.0), pair.f_prime()), pair.f)
        ks = range(-order, order + 1)
        want_a = [k * t[k] if k > 0 else t[0] if k == 0 else v[-k] for k in ks]
        want_b = [-v[-k] if k > 0 else t[0] if k == 0 else k * t[k] for k in ks]
        return float(np.max(np.abs(np.concatenate([got_a - want_a, got_b - want_b]))))

    def log_tau(self, t: Dict[int, complex], v: Dict[int, complex], v0: complex):
        """(Z1, Z2, Z3, logT, z2_closed) of a pure two-variable potential;
        a gauged one raises `hamiltonian.LogObstructionError`."""
        pair, order, window = self.pair, self.order, (-self.width, self.width)
        (m1, m2), z1_part = self.m, t[0] * v0 / 2.0

        ns = range(1, order + 1)
        phi_g = S.clip(S.combine([v[n] / n for n in ns], self.g_down.cut(*window)), *window)
        psi_f = S.clip(S.combine([v[-n] / n for n in ns], self.f_up.cut(*window)), *window)
        z2_part = (S.residue_mul(m1, phi_g) + S.residue_mul(m2, psi_f)) / 2.0

        j1_along, j2_along = (eval_along(j, pair, window) for j in j_pair(self.h))
        z3_part = (S.residue_mul(j1_along, pair.g_prime())
                   + S.residue_mul(j2_along, pair.f_prime())) / 4.0

        z2_closed = sum(t[n] * v[n] + t[-n] * v[-n] for n in ns) / 2.0
        log_t = z1_part + z2_part + z3_part
        return z1_part, z2_part, z3_part, log_t, z2_closed


def _paired_logs(pair, depth: int):
    """log(g/w) and log(f/w) with the branch of log a1 forced to -log b."""
    cg, _, ug = S.split_normalize(pair.g)
    cf, _, uf = S.split_normalize(pair.f)
    lb = cmath.log(cg)
    log_g = S.add(S.constant(lb), S.log1p(ug, depth=depth))
    log_f = S.add(S.constant(-lb), S.log1p(uf, depth=depth))
    return log_g, log_f


def snapshot(mo: Moments, full: Moments) -> TodaCoordinates:
    """The snapshot at ``mo``'s order, v_0 read off the full-order ``full``."""
    t, v, t0_alt = mo.times
    v0 = full.v0
    z1_part, z2_part, z3_part, log_t, z2_closed = mo.log_tau(t, v, v0)
    return TodaCoordinates(order=mo.order, t=t, v=v, v0=v0, t0_alt=t0_alt, logT=log_t,
                           z_parts=(z1_part, z2_part, z3_part), z2_closed=z2_closed)


def time_variables(pair, h: MonomialSum, order: int):
    """The maps t (|n| <= order, with t[0]) and v (n != 0), plus t0_alt."""
    return Moments(pair, h, int(order)).times


def v_zero(pair, h: MonomialSum) -> complex:
    """res(M1 log(g/w) + M2 log(f/w) - potential(g, f)/w)."""
    return Moments(pair, h, pair.order).v0


def plemelj_check(pair, h: MonomialSum, order: int) -> float:
    """Max defect of the two basis expansions against (t, v, t_0)."""
    return Moments(pair, h, int(order)).plemelj


def log_tau(pair, h: HamiltonianH, t: Dict[int, complex], v: Dict[int, complex],
            v0: complex):
    """(Z1, Z2, Z3, logT, z2_closed) for a pure two-variable potential."""
    return Moments(pair, h, max(n for n in t if n >= 0)).log_tau(t, v, v0)


def toda_coordinates(pair, h: HamiltonianH, order: int | None = None) -> TodaCoordinates:
    """Assemble the full coordinate snapshot for a pure potential."""
    full = Moments(pair, h, pair.order)
    mo = full if order in (None, pair.order) else Moments(pair, h, int(order))
    return snapshot(mo, full)
