"""One pair and the series derived from it, each built once per command.

Every object of a solution (times, v's, log tau, flows, the pairing
table) is a residue pairing of series derived from one pair (g, f).  A
`PairContext` holds the pair, the potential, its gauge terms (the
config's one-variable ``(mu, nu, c)`` triples) and the config order, and
builds each derived result on first use.  It lives for one command.  A
moment object built under a gauge reads the one potential
``h + MonomialSum.of(*gauge)``; the plain gauge () reads ``h`` itself.
Fields and tangents read the potential only through E = d1 d2 H along the
pair (`mixed_partial`), which no one-variable term reaches, so they take
no gauge.
The powers of g and f are not among the results: the germs keep their own
chains (`series._chain`), which die with the pair, because commands such
as `cli.cmd_grunsky` and `flows.step` read them from a bare pair.
"""

from __future__ import annotations

from typing import Tuple

from . import coords as C
from . import flows as F
from . import grunsky as G
from . import plan
from . import series as S
from . import special as SP
from .hamiltonian import HamiltonianH, MonomialSum


class PairContext:
    """A pair, its potential, gauge and order, and a memo of what derives
    from them.  A table, snapshot or field whose build raises is not kept, so
    every reader reports the error.  A moment object builds its series on
    first read, so it stays in the memo when a read of it raises.

    Tangents and fields read the pair itself: every pair the package
    builds stores g and f as exact polynomials (a reflection pair's f out
    to where its tail is below rounding, `conformal_pair.sigma_image`), so
    the pair is already the chart a flow step starts from."""

    def __init__(self, pair, h: HamiltonianH, gauge: tuple, order: int):
        self.pair, self.h, self.gauge, self.order = pair, h, tuple(gauge), order
        self._memo: dict = {}

    def _once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def moments(self, order: int, gauge: tuple) -> C.Moments:
        """The moments at ``order`` of ``h`` plus the monomials of ``gauge``."""
        gauge = tuple(gauge)
        return self._once(("moments", order, gauge), lambda: C.Moments(
            self.pair, self.h + MonomialSum.of(*gauge) if gauge else self.h, order))

    def coords(self, order: int) -> C.TodaCoordinates:
        """The ungauged snapshot at ``order``."""
        return self._once(("coords", order), lambda: C.snapshot(
            self.moments(order, ()), self.moments(self.pair.order, ())))

    @property
    def snapshot(self) -> C.TodaCoordinates:
        """The ungauged snapshot at `plan.probe_order`."""
        return self.coords(plan.probe_order(self.order))

    def table(self, order: int) -> G.GrunskyTable:
        return self._once(("table", order), lambda: G.grunsky_table(self.pair, order))

    def mixed_partial(self) -> S.LaurentSeries:
        """E along the pair, the one thing fields and tangents read of the potential."""
        return self._once("e12", lambda: F._mixed_partial_along(self.pair, self.h))

    def flow_fields(self, ns, pad: int = 0) -> dict:
        """`flows.flow_fields` of ``ns``: the ones not built yet in one call."""
        keys = {int(n): ("flow", int(n), pad) for n in ns}
        missing = [n for n, key in keys.items() if key not in self._memo]
        if missing:
            built = F.flow_fields(self.pair, self.mixed_partial(), missing, pad)
            self._memo.update((keys[n], built[n]) for n in missing)
        return {n: self._memo[key] for n, key in keys.items()}

    def tangents(self, ns) -> list:
        """`flows.tangent` of the plain field of each n of ``ns``."""
        fields, e12 = self.flow_fields(ns), self.mixed_partial()
        return [self._once(("tangent", n), lambda: F.tangent(self.pair, e12, fields[n]))
                for n in map(int, ns)]

    @property
    def monomial(self) -> Tuple[int, int]:
        """(mu, nu) of a single unit-coefficient monomial potential."""
        (mu, nu, c), *rest = self.h.terms
        if rest or c != 1:
            raise ValueError("check needs a single unit-coefficient monomial potential")
        return mu, nu

    def special(self, order: int) -> C.TodaCoordinates:
        """The monomial's closed-form snapshot at ``order``."""
        return self._once(("special", order), lambda: SP.closed_form(
            self.pair, *self.monomial, self.moments(order, ())))

    def generating(self, order: int) -> SP.GeneratingReport:
        return SP.generating_identity_check(self.pair, self.special(order), *self.monomial)

    @property
    def monomial_case(self) -> C.TodaCoordinates:
        """The closed-form snapshot at `plan.monomial_order`."""
        return self.special(plan.monomial_order(self.pair, *self.monomial))
