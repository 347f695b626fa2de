"""The state object of the hierarchy: a normalized pair of conformal-map germs.

A :class:`ConformalPair` holds

* ``g`` — a germ at infinity, g(w) = b*w + b0 + b1/w + ... , stored on the
  window [-order, 1] with exactly one positive power (the linear term);
* ``f`` — a germ at zero, f(w) = a1*w + a2*w^2 + ..., stored on [1, order+1]
  (a reflection pair's further out) with no constant term;

subject to the normalization a1*b = 1 (to 1e-12).  Pairs are immutable;
every deformation (a flow step) produces a new pair.  Every pair the
package builds stores g and f as exact polynomials, so a reader may take
any depth it needs from either germ and never meets a truncation edge of
the pair itself.

Two constructors build distinguished subfamilies:

* :func:`sigma_conjugate` produces the reflection-symmetric pair in which
  f(w) = 1/conj(g(1/conj(w))) = w / p(w), p a polynomial: f's tail decays
  geometrically at the rate of p's nearest root, so f is stored out to
  where that tail is below rounding and taken as exact there.  A g whose
  p has a root in the closed unit disc is rejected: its f has a pole there.
* :func:`random_pair` draws a reproducible perturbative pair with
  geometrically decaying tails (and optionally all-real coefficients).

Univalence is not verified on arbitrary input pairs: the package works
with formal perturbative truncations, where smallness of the tail
coefficients stands in for geometric injectivity.  :func:`random_pair`
does, however, enforce a branch-point margin on the pairs it fabricates,
because coordinate expansions of large index only decay when the inverse
charts are regular across the shared circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import series as S
from .series import AT_INFINITY, AT_ZERO, LaurentSeries, SeriesError


class NormalizationError(SeriesError):
    """The pair's defining normalization is violated."""


@dataclass(frozen=True)
class ConformalPair:
    """Validated, immutable (g, f) pair at truncation order N."""

    g: LaurentSeries
    f: LaurentSeries
    order: int

    def __post_init__(self):
        object.__setattr__(self, "order", int(self.order))
        g, f, n = self.g, self.f, self.order
        if n < 1:
            raise SeriesError("order must be a positive integer")
        if g.flavor != AT_INFINITY:
            raise SeriesError("g must be an AtInfinity series")
        if f.flavor != AT_ZERO:
            raise SeriesError("f must be an AtZero series")
        if g.hi_exp > 1 and np.any(g.coeffs[2 - g.lo_exp :] != 0):
            raise SeriesError("g must have exactly one positive-power (linear) term")
        if f.lo_exp < 1 and np.any(f.coeffs[: 1 - f.lo_exp] != 0):
            raise NormalizationError("f(0) ≠ 0")
        b = g.coeff(1)
        a1 = f.coeff(1)
        if abs(b) < 1e-300 or abs(a1) < 1e-300:
            raise NormalizationError("a1·b ≠ 1")
        if abs(a1 * b - 1.0) > 1e-12:
            raise NormalizationError("a1·b ≠ 1")

    # -- convenience accessors ------------------------------------------------

    @property
    def b(self) -> complex:
        return self.g.coeff(1)

    @property
    def a1(self) -> complex:
        return self.f.coeff(1)

    def g_prime(self) -> LaurentSeries:
        return S.derivative(self.g)

    def f_prime(self) -> LaurentSeries:
        return S.derivative(self.f)


def _canonical_g(coeffs, order: int) -> LaurentSeries:
    arr = np.zeros(order + 2, dtype=np.complex128)
    for e, c in dict(coeffs).items():
        e = int(e)
        if e > 1:
            raise SeriesError("g must have exactly one positive-power (linear) term")
        if e < -order:
            if complex(c) != 0:
                raise SeriesError(f"g coefficient at exponent {e} outside order-{order} window")
            continue
        arr[e + order] = complex(c)
    return LaurentSeries(-order, arr, AT_INFINITY)


def _canonical_f(coeffs, order: int) -> LaurentSeries:
    arr = np.zeros(order + 1, dtype=np.complex128)
    for e, c in dict(coeffs).items():
        e = int(e)
        if e < 1:
            if complex(c) != 0:
                raise NormalizationError("f(0) ≠ 0")
            continue
        if e > order + 1:
            raise SeriesError(f"f coefficient at exponent {e} outside order-{order} window")
        arr[e - 1] = complex(c)
    return LaurentSeries(1, arr, AT_ZERO)


def from_coefficients(g_coeffs, f_coeffs, order: int) -> ConformalPair:
    """Build a validated pair from {exponent: coefficient} mappings.

    Coefficients are placed on the canonical windows [-order, 1] for g and
    [1, order+1] for f; both series are exact polynomials.
    """
    order = int(order)
    g = _canonical_g(g_coeffs, order)
    f = _canonical_f(f_coeffs, order)
    return ConformalPair(g, f, order)


# f's tail is cut where it falls below 2**-60 |a1|: 8 bits under double
# rounding, room for the constant in front of rho**-k.  The depth grows
# without bound as rho -> 1 (4e13 terms at rho = 1 + 1e-12), so it is capped
# at 1024 terms, rho >= 2**(60/1024) = 1.0415: a deeper f buys no result, as
# from rho = 1.12 (g = w + 0.8/w, 374 terms) most readers underflow anyway.
_TAIL_BITS, _TAIL_LIMIT = 60, 1024


def sigma_image(s: LaurentSeries, order: int) -> LaurentSeries:
    """The reflection w -> 1/conj(s(1/conj(w))) of a linear-leading
    AtInfinity germ, an exact AtZero polynomial on [1, K + 1].

    The image is w / p with p(w) = w*conj(s(1/conj(w))), a polynomial, so
    its coefficients decay like rho**-k, rho the smallest root modulus of p.
    K is the least depth past which that tail is below 2**-60 |a1| (at
    least ``order``): the coefficients dropped are below rounding, so the
    image is stored as exact.  rho <= 1 puts a pole of the image in the
    closed unit disc, so the pair is not one of conformal maps, and such
    an s is rejected.
    """
    if s.flavor != AT_INFINITY:
        raise SeriesError("sigma_image needs an AtInfinity germ")
    p = np.conj(S.dense(s, s.lo_exp, 1)[::-1])  # p_j = conj(s_{1-j})
    try:
        rho = float(np.min(np.abs(np.roots(p[::-1])), initial=math.inf))
    except np.linalg.LinAlgError:  # a companion matrix out of range
        rho = math.nan
    tail = _TAIL_BITS * math.log(2) / math.log(rho) if rho > 1.0 else math.inf
    if tail > _TAIL_LIMIT:
        raise SeriesError(f"1/conj(g(1/conj(w))) has a pole at |w| = {rho:.6g}, inside "
                          f"|w| = {2 ** (_TAIL_BITS / _TAIL_LIMIT):.5g} "
                          f"(the unit disc, or a tail past {_TAIL_LIMIT} terms)")
    depth = max(int(order), math.ceil(tail))
    q = S.int_pow(LaurentSeries(0, p, AT_ZERO), -1, depth=depth)
    return LaurentSeries(1, S.dense(q, 0, depth), AT_ZERO)


def sigma_conjugate(g: LaurentSeries, order: int | None = None) -> ConformalPair:
    """Pair (g, f) on the reflection-symmetric subfamily.

    f = 1/conj(g(1/conj(w))) is stored as exact out to where its tail is
    below rounding (`sigma_image`), like the polynomial f of a pair from
    coefficients, so every reader finds it exact at any depth.  The
    normalization a1*b = 1 then requires b to be real; a complex b raises
    NormalizationError.
    """
    if order is None:
        order = max(1 - g.lo_exp, 1)
    order = int(order)
    if g.coeff(1).imag != 0.0:
        raise NormalizationError("reflection pair needs a real leading "
                                 f"coefficient b, got b = {g.coeff(1)}")
    g_can = _canonical_g({k: g.coeff(k) for k in range(g.lo_exp, g.hi_exp + 1)}, order)
    return ConformalPair(g_can, sigma_image(g_can, order), order)


def _chart_margins(g_coeffs, f_coeffs) -> Tuple[float, float]:
    """(max |g| over g-critical points, min |f| over f-critical points).

    The critical points of the two truncated charts are the roots of the
    polynomial derivatives; their critical values locate the branch
    points of the inverse maps.  The exterior chart stays invertible
    outside radius max|g(crit)| and the interior chart inside radius
    min|f(crit)|, so a healthy pair keeps the first below 1 and the
    second above 1 with room to spare.
    """
    def eval_at(coeffs, w):
        return sum(c * w ** int(e) for e, c in coeffs.items())

    def crit_values(coeffs):
        lo = min(coeffs)
        hi = max(coeffs)
        dpoly = np.zeros(hi - lo + 1, dtype=np.complex128)
        for e, c in coeffs.items():
            dpoly[hi - e] = e * c          # d/dw, exponents shifted by lo-1
        roots = np.roots(dpoly)
        vals = []
        for r in roots:
            if 1e-8 < abs(r) < 1e8:
                vals.append(abs(eval_at(coeffs, r)))
        return vals

    g_vals = crit_values(g_coeffs)
    f_vals = crit_values(f_coeffs)
    return (max(g_vals) if g_vals else 0.0,
            min(f_vals) if f_vals else np.inf)


def random_pair(seed: int, decay: float, order: int, real: bool = False) -> ConformalPair:
    """Reproducible perturbative pair with geometrically decaying tails.

    Draws are made in a fixed order from ``numpy.random.default_rng(seed)``
    so results are bit-exact across runs and platforms: first b, then the
    g-tail top-down, then the f-tail bottom-up.  a1 is set to 1/b exactly.
    With ``real`` every coefficient is real.

    The tail amplitude starts at 0.1 per decay step and is halved (same
    draws) until both truncated charts are branch-free across the shared
    circle: every critical value of g inside radius 2/3, every critical
    value of f outside radius 3/2.  Without the guard an unlucky draw can
    park a branch point of the inverse map on the unit circle, and the
    expansion coordinates of large index stop decaying.
    """
    order = int(order)
    decay = float(decay)
    if not (0.0 <= decay < 1.0):
        raise SeriesError("decay must lie in [0, 1)")
    rng = np.random.default_rng(int(seed))

    def draw() -> complex:
        re = rng.uniform(-1.0, 1.0)
        im = 0.0 if real else rng.uniform(-1.0, 1.0)
        return complex(re, im)

    b = 1.0 + 0.25 * decay * draw()
    g_draws = {0: draw()}
    for k in range(1, order + 1):
        g_draws[-k] = decay ** k * draw()
    f_draws = {}
    for j in range(1, order + 1):
        f_draws[1 + j] = decay ** (j - 1) * draw()

    amp = 0.1 * decay
    for _ in range(60):
        g_coeffs = {1: b}
        g_coeffs.update({e: amp * d for e, d in g_draws.items()})
        f_coeffs = {1: 1.0 / b}
        f_coeffs.update({e: amp * d for e, d in f_draws.items()})
        g_margin, f_margin = _chart_margins(g_coeffs, f_coeffs)
        if g_margin <= 2.0 / 3.0 and f_margin >= 1.5:
            return from_coefficients(g_coeffs, f_coeffs, order)
        amp *= 0.5
    raise SeriesError("random pair failed the branch-point margin")
