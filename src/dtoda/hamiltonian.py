"""Two-variable Laurent-monomial potentials and their derivative calculus.

A potential is a finite sum  sum_j c_j * z1**mu_j * z2**(-nu_j).  Terms are
stored as ``(mu, nu, c)`` triples in that sign convention, so ``(1, 1, 1.0)``
is z1/z2 and ``(2, -1, 0.5)`` is 0.5*z1**2*z2.  One type and its validated form:

* ``MonomialSum`` — the unconstrained algebra (any integer exponents,
  including zero) that partial derivatives and antiderivatives live in,
  and the one potential argument every reader takes.
* ``HamiltonianH`` — a ``MonomialSum`` validated on construction: every
  exponent nonzero, the mixed second partial not identically zero, and no
  ordered pair of terms with mu + mu' = 0 or nu + nu' = 0, so the
  antiderivative pair ``j_pair`` stays inside the monomial algebra (no
  logarithmic terms).  A gauged potential ``h + MonomialSum.of(*gauge)``
  is a plain sum: its one-variable terms fail that check, and ``j_pair``
  raises on it.

``eval_along`` substitutes z1 = g(w), z2 = f(w) for a conformal-map pair and
returns a truncated Laurent series clipped to a requested window, reading
each power of g and f off the pair's chains deep enough that the
reliability claim covers the window.

``gauge_shift_constants`` gives the closed-form origin shifts of the
time/velocity coordinates induced by adding single-variable monomials
c*z1**k or c*z2**k to the potential, the gauge triples ``(k, 0, c)`` and
``(0, -k, c)``:

    z1**k, k >= 1:  t_k   += c        z1**k, k <= -1:  v_{-k} += c*k
    z2**k, k <= -1: t_k   += -c       z2**k, k >= 1:   v_{-k} += c*k

with t_0, v_0 and every other coordinate unchanged.  Each shift is the
residue the coordinate definition assigns to the added monomial (a winding
count, hence an exact integer multiple of c); the v_0 integrand's
logarithmic part cancels its -potential/w part by integration by parts, so
v_0 never moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import series as S
from .series import LaurentSeries


class LogObstructionError(ValueError):
    """An exponent pairing would force a logarithmic antiderivative."""


def _merge_terms(terms) -> Tuple[Tuple[int, int, complex], ...]:
    """Combine like monomials, drop exact zeros, sort for determinism."""
    acc: dict = {}
    for mu, nu, c in terms:
        key = (int(mu), int(nu))
        acc[key] = acc.get(key, 0j) + complex(c)
    return tuple(
        (mu, nu, c) for (mu, nu), c in sorted(acc.items()) if c != 0
    )


@dataclass(frozen=True)
class MonomialSum:
    """Finite sum  c * z1**mu * z2**(-nu)  with unconstrained exponents."""

    terms: Tuple[Tuple[int, int, complex], ...]

    @staticmethod
    def of(*terms) -> "MonomialSum":
        return MonomialSum(_merge_terms(terms))

    def __add__(self, other: "MonomialSum") -> "MonomialSum":
        return MonomialSum(_merge_terms(tuple(self.terms) + tuple(other.terms)))

    def d1(self) -> "MonomialSum":
        return MonomialSum(_merge_terms(
            (mu - 1, nu, c * mu) for mu, nu, c in self.terms if mu
        ))

    def d2(self) -> "MonomialSum":
        # d/dz2 of z2**(-nu) is -nu * z2**(-nu-1), i.e. nu -> nu + 1.
        return MonomialSum(_merge_terms(
            (mu, nu + 1, -c * nu) for mu, nu, c in self.terms if nu
        ))

    def d11(self) -> "MonomialSum":
        return MonomialSum(_merge_terms(
            (mu - 2, nu, c * mu * (mu - 1))
            for mu, nu, c in self.terms if mu not in (0, 1)
        ))

    def d12(self) -> "MonomialSum":
        return MonomialSum(_merge_terms(
            (mu - 1, nu + 1, -c * mu * nu)
            for mu, nu, c in self.terms if mu and nu
        ))


@dataclass(frozen=True)
class HamiltonianH(MonomialSum):
    """Validated potential  sum c * z1**mu * z2**(-nu).

    Rejects exponent families that break the downstream machinery: a zero
    mu or nu (the term would be a pure gauge monomial, which a caller adds
    as a ``MonomialSum``), a vanishing mixed second partial, or an ordered
    term pair with mu + mu' = 0 or nu + nu' = 0, for which the
    antiderivative pair would need a logarithm.
    """

    def __post_init__(self):
        merged = _merge_terms(self.terms)
        object.__setattr__(self, "terms", merged)
        if not merged:
            raise ValueError("mixed second partial identically zero")
        for mu, nu, _ in merged:
            if mu == 0 or nu == 0:
                raise ValueError("potential exponents mu, nu must be nonzero")
        for mu, nu, _ in merged:
            for mup, nup, _ in merged:
                if mu + mup == 0 or nu + nup == 0:
                    raise LogObstructionError("log obstruction in J construction")

    @staticmethod
    def of(*terms) -> "HamiltonianH":
        return HamiltonianH(tuple(terms))


def eval_along(ms, pair, window) -> LaurentSeries:
    """Substitute z1 = g(w), z2 = f(w) and clip to ``window``.

    Each power of g or f is a row of the pair's one chain of its sign
    (`series.int_pow`) as deep as the window is wide: a product of two rows
    reads each as far past its leading term as the window reaches.  A
    deeper row starts with the same bits, so it would move no output.
    """
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ValueError("empty window")

    acc = None
    for mu, nu, c in ms.terms:
        if mu and nu:
            prod = S.mul(S.int_pow(pair.g, mu, hi - lo), S.int_pow(pair.f, -nu, hi - lo))
        elif mu:
            prod = S.int_pow(pair.g, mu, hi - lo)
        elif nu:
            prod = S.int_pow(pair.f, -nu, hi - lo)
        else:
            prod = S.constant(1.0)
        piece = S.clip(S.scale(prod, c), lo, hi)
        acc = piece if acc is None else S.add(acc, piece)
    if acc is None:
        return LaurentSeries(lo, np.zeros(hi - lo + 1, dtype=np.complex128),
                             S.TWO_SIDED, (S.NEG_INF, S.POS_INF))
    return acc


def j_pair(h) -> Tuple[MonomialSum, MonomialSum]:
    """The antiderivative pair (J1, J2) of the product rule

        -dJ1/dz2 = dJ2/dz1 = (potential) * (mixed second partial),

    accumulated over ordered term pairs.  Any valid choice differs from
    this one by functions of z1 alone or z2 alone, which drop out of every
    residue downstream.
    """
    j1: list = []
    j2: list = []
    for mu, nu, c in h.terms:
        for mup, nup, cp in h.terms:
            if mu + mup == 0 or nu + nup == 0:
                raise LogObstructionError("log obstruction in J construction")
            w = c * cp * mup * nup
            j1.append((mu + mup - 1, nu + nup, -w / (nu + nup)))
            j2.append((mu + mup, nu + nup + 1, -w / (mu + mup)))
    return MonomialSum(_merge_terms(j1)), MonomialSum(_merge_terms(j2))


def gauge_shift_constants(gauge, order: int):
    """Closed-form coordinate shifts from adding the gauge monomials, the
    ``(mu, nu, c)`` triples c * z1**mu * z2**(-nu) with one exponent zero.

    Returns ``(t_shift, v_shift, v0_shift)``: ``t_shift`` maps every
    |n| <= order (including n = 0, always zero there), ``v_shift`` maps
    every nonzero |n| <= order, and ``v0_shift`` vanishes identically.
    """
    order = int(order)
    t_shift = {n: 0j for n in range(-order, order + 1)}
    v_shift = {n: 0j for n in range(-order, order + 1) if n != 0}
    for mu, nu, c in gauge:
        if nu == 0:  # c * z1**mu
            if 1 <= mu <= order:
                t_shift[mu] += c
            elif 1 <= -mu <= order:
                v_shift[-mu] += c * mu
        elif 1 <= nu <= order:  # c * z2**k, k = -nu
            t_shift[-nu] += -c
        elif 1 <= -nu <= order:
            v_shift[nu] += c * -nu
    return t_shift, v_shift, 0j
