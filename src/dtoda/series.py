"""Truncated Laurent-series arithmetic with reliability windows.

A :class:`LaurentSeries` stores a finite window of complex coefficients
``c[lo_exp] .. c[lo_exp + len - 1]`` for powers of one variable ``w``,
tagged with

* a *flavor* describing where the underlying function is a germ:
  ``AT_ZERO`` (finitely many negative powers, infinite tail may extend
  upward), ``AT_INFINITY`` (finitely many positive powers, tail extends
  downward), or ``TWO_SIDED`` (no one-sided claim); and
* a *reliable window* ``(r_lo, r_hi)``: the exponent range on which
  stored-or-zero coefficients are trusted to equal the represented
  function's true coefficients.  Queries outside the stored window return
  exactly zero, and the reliable window may extend past the stored window
  (a claim that the true coefficients there are zero).  Exact polynomials
  carry the sentinels ``(-inf, +inf)``.  Operations that truncate an
  infinite tail (negative integer powers and ``reciprocal_powers``,
  ``log1p``, ``invert_function``, ``divide_on_circle``, lossy clips)
  install finite edges, and the ring operations propagate them.

Reliability propagation through a product pairs a truncation edge of one
factor with the *leading* exponent of the other factor (the exponent
carrying its largest coefficient): a dropped tail times a leading O(1)
coefficient is the first contamination that matters.  Dropped tails paired
with sub-leading coefficients, and dropped x dropped terms, are of the
order of the dropped coefficients themselves; with geometrically decaying
tails and the window depths used throughout this package they sit far
below every tolerance in the verification suite, and are waived.  The
Newton-doubling reciprocal and ``log1p``, taken as the integral of
u' / (1 + u) on that reciprocal, claim their output reliability from
their truncation and convergence analysis, and ``invert_function`` from
Lagrange inversion (each output coefficient is a residue of a power of
the input that reads only input coefficients inside the window), rather
than from interval propagation through every intermediate; round-trip
identities and 40-digit oracles in the test-suite check those claims
directly.

Power chains have one kernel, `powers` (clipped only where no later
factor can carry a dropped coefficient into the requested window), and
linear combinations another, `combine` (one vector-matrix product).
`int_pow` is a single power by repeated squaring, with no window;
`invert_function` reads its coefficients off one chain.

All coefficients are complex doubles, all operations are pure (inputs are
never mutated) and deterministic: identical inputs give bit-identical
outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

AT_ZERO = "AtZero"
AT_INFINITY = "AtInfinity"
TWO_SIDED = "TwoSided"

_FLAVORS = (AT_ZERO, AT_INFINITY, TWO_SIDED)

NEG_INF = float("-inf")
POS_INF = float("inf")


class SeriesError(ValueError):
    """Base class for series-arithmetic failures."""


class WindowUnderflowError(SeriesError):
    """An operation produced an empty reliable window."""


class NonInvertibleError(SeriesError):
    """A required leading coefficient is (numerically) zero."""


class CircleZeroError(SeriesError):
    """A denominator (nearly) vanishes on the sampling circle."""


def _as_reliable(value) -> tuple:
    if value is None:
        return (NEG_INF, POS_INF)
    r_lo, r_hi = value
    r_lo = NEG_INF if math.isinf(float(r_lo)) else int(r_lo)
    r_hi = POS_INF if math.isinf(float(r_hi)) else int(r_hi)
    return (r_lo, r_hi)


@dataclass(frozen=True)
class LaurentSeries:
    """Finite window of Laurent coefficients with flavor and reliability.

    Fields
    ------
    lo_exp:   exponent of ``coeffs[0]``; entry k holds the coefficient of
              ``w**(lo_exp + k)``.
    coeffs:   complex128 array (read-only), length >= 1; copied if it or its
              base is writeable (kernels pass fresh output `_frozen`).
    flavor:   one of AT_ZERO / AT_INFINITY / TWO_SIDED.
    reliable: pair (r_lo, r_hi); ints or -inf/+inf sentinels.
    """

    lo_exp: int
    coeffs: np.ndarray
    flavor: str = TWO_SIDED
    reliable: tuple = (NEG_INF, POS_INF)

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise SeriesError("coefficient window must be a non-empty 1-d array")
        base = arr if arr.base is None else arr.base
        if arr.flags.writeable or not isinstance(base, np.ndarray) or base.flags.writeable:
            arr = _frozen(arr.copy())
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "lo_exp", int(self.lo_exp))
        if self.flavor not in _FLAVORS:
            raise SeriesError(f"unknown flavor {self.flavor!r}")
        r_lo, r_hi = _as_reliable(self.reliable)
        if r_lo > r_hi:
            raise WindowUnderflowError("window underflow: empty reliable window")
        object.__setattr__(self, "reliable", (r_lo, r_hi))

    # -- basic geometry ----------------------------------------------------

    @property
    def hi_exp(self) -> int:
        return self.lo_exp + self.coeffs.size - 1

    @property
    def width(self) -> int:
        return self.coeffs.size

    @cached_property
    def lead(self) -> int | None:
        """Exponent of the largest stored coefficient (ties: lowest); None if all are zero."""
        mags = np.abs(self.coeffs)
        k = int(np.argmax(mags))
        return None if mags[k] == 0 else self.lo_exp + k

    # -- queries -----------------------------------------------------------

    def coeff(self, k: int) -> complex:
        """Stored coefficient of w**k, or exactly zero outside the window."""
        idx = int(k) - self.lo_exp
        if 0 <= idx < self.coeffs.size:
            return complex(self.coeffs[idx])
        return 0.0 + 0.0j

    def residue(self) -> complex:
        """Coefficient of w**-1."""
        return self.coeff(-1)

    def is_reliable(self, k: int) -> bool:
        r_lo, r_hi = self.reliable
        return r_lo <= k <= r_hi

    def reliable_coeff(self, k: int) -> complex:
        if not self.is_reliable(k):
            raise WindowUnderflowError(
                f"window underflow: exponent {k} outside reliable {self.reliable}"
            )
        return self.coeff(k)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_pairs(pairs, flavor: str = TWO_SIDED, reliable=None) -> "LaurentSeries":
        """Build from {exponent: coefficient} or [(exponent, coefficient)]."""
        items = list(pairs.items()) if isinstance(pairs, Mapping) else list(pairs)
        if not items:
            return LaurentSeries(0, np.zeros(1), flavor, _as_reliable(reliable))
        exps = [int(e) for e, _ in items]
        lo, hi = min(exps), max(exps)
        arr = np.zeros(hi - lo + 1, dtype=np.complex128)
        for e, c in items:
            arr[int(e) - lo] += complex(c)
        return LaurentSeries(lo, _frozen(arr), flavor, _as_reliable(reliable))


# ---------------------------------------------------------------------------
# constructors


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only: a kernel's fresh output, which a series then owns uncopied."""
    arr.setflags(write=False)
    return arr


def monomial(exponent: int, coefficient=1.0, flavor: str = TWO_SIDED) -> LaurentSeries:
    return LaurentSeries(int(exponent), np.array([coefficient], dtype=np.complex128), flavor)


def constant(value, flavor: str = TWO_SIDED) -> LaurentSeries:
    return monomial(0, value, flavor)


def zero(flavor: str = TWO_SIDED) -> LaurentSeries:
    return monomial(0, 0.0, flavor)


# ---------------------------------------------------------------------------
# flavor / reliability plumbing


def _is_exact(a: LaurentSeries) -> bool:
    return math.isinf(a.reliable[0]) and math.isinf(a.reliable[1])


def _merge_flavor(*parts: LaurentSeries) -> str:
    """Flavor of a sum or product of ``parts``, folded left to right."""
    flavor, exact = parts[0].flavor, _is_exact(parts[0])
    for b in parts[1:]:
        # an exact polynomial is compatible with either germ flavor
        if flavor != b.flavor and not (b.flavor == TWO_SIDED and _is_exact(b)):
            flavor = b.flavor if flavor == TWO_SIDED and exact else TWO_SIDED
        exact = exact and _is_exact(b)
    return flavor


def _mul_reliable(a: LaurentSeries, b: LaurentSeries) -> tuple:
    """Reliability window of a product.

    A finite truncation edge of one factor contaminates the product from
    (edge + leading exponent of the other factor) outward; tails against
    sub-leading coefficients are at dropped-coefficient scale and waived
    (module docstring).  An all-zero factor has no lead, so only its own
    edges bound the product: the other's tail meets its zeros or its own
    dropped tail (waived).  An exact zero factor thus gives an exact zero.
    """
    r_lo, r_hi = NEG_INF, POS_INF
    for x, y in ((a, b), (b, a)):
        lead = None if _is_exact(x) else y.lead
        if lead is not None:
            r_lo, r_hi = max(r_lo, x.reliable[0] + lead), min(r_hi, x.reliable[1] + lead)
    if r_lo > r_hi:
        raise WindowUnderflowError("window underflow: product has empty reliable window")
    return (r_lo, r_hi)


def clip(a: LaurentSeries, lo: int, hi: int) -> LaurentSeries:
    """Restrict the stored window to [lo, hi].

    Discarding a nonzero coefficient moves the corresponding reliability
    edge inward (the discarded data becomes an untracked tail) and, when
    the support claim of a germ flavor is broken, demotes the flavor.
    """
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise SeriesError("clip: empty window requested")
    dropped_low = a.lo_exp < lo and bool(np.any(a.coeffs[: min(lo - a.lo_exp, a.width)] != 0))
    dropped_high = a.hi_exp > hi and bool(np.any(a.coeffs[max(hi - a.lo_exp + 1, 0) :] != 0))
    r_lo, r_hi = a.reliable
    flavor = a.flavor
    if dropped_low:
        r_lo = max(r_lo, lo)
        if flavor == AT_ZERO:
            flavor = TWO_SIDED
    if dropped_high:
        r_hi = min(r_hi, hi)
        if flavor == AT_INFINITY:
            flavor = TWO_SIDED
    if r_lo > r_hi:
        raise WindowUnderflowError("window underflow: clip removed all reliable data")
    new_lo = max(lo, a.lo_exp)
    new_hi = min(hi, a.hi_exp)
    if new_lo > new_hi:
        return LaurentSeries(lo, np.zeros(1), flavor, (r_lo, r_hi))
    arr = a.coeffs[new_lo - a.lo_exp : new_hi - a.lo_exp + 1]
    return LaurentSeries(new_lo, arr, flavor, (r_lo, r_hi))


def project(a: LaurentSeries, lo=None, hi=None) -> LaurentSeries:
    """Restriction of ``a`` to exponents in [lo, hi], as a defined object.

    Unlike ``clip``, the dropped exponents are exactly zero *by
    definition* of the result, so reliability widens to infinity on any
    side that was fully trusted up to the cut; inside the kept range the
    input's claims carry over unchanged.
    """
    s_lo = a.lo_exp if lo is None else max(a.lo_exp, int(lo))
    s_hi = a.hi_exp if hi is None else min(a.hi_exp, int(hi))
    r_lo = a.reliable[0] if (lo is None or a.reliable[0] > lo) else NEG_INF
    r_hi = a.reliable[1] if (hi is None or a.reliable[1] < hi) else POS_INF
    if s_lo > s_hi:
        anchor = int(lo) if lo is not None else int(hi)
        return LaurentSeries(anchor, np.zeros(1, dtype=np.complex128),
                             a.flavor, (r_lo, r_hi))
    return LaurentSeries(s_lo, a.coeffs[s_lo - a.lo_exp: s_hi - a.lo_exp + 1],
                         a.flavor, (r_lo, r_hi))


def dense(a: LaurentSeries, lo: int, hi: int) -> np.ndarray:
    """Coefficients of w**lo .. w**hi as a fresh array, zero off the stored window."""
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise SeriesError("dense: empty window requested")
    out = np.zeros(hi - lo + 1, dtype=np.complex128)
    s_lo, s_hi = max(lo, a.lo_exp), min(hi, a.hi_exp)
    if s_lo <= s_hi:
        out[s_lo - lo : s_hi - lo + 1] = a.coeffs[s_lo - a.lo_exp : s_hi - a.lo_exp + 1]
    return out


def shift(a: LaurentSeries, j: int) -> LaurentSeries:
    """Multiply by w**j (exact)."""
    j = int(j)  # an infinite reliability edge stays infinite
    return LaurentSeries(a.lo_exp + j, a.coeffs, a.flavor, tuple(e + j for e in a.reliable))


# ---------------------------------------------------------------------------
# ring operations


def add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    lo = min(a.lo_exp, b.lo_exp)
    hi = max(a.hi_exp, b.hi_exp)
    arr = np.zeros(hi - lo + 1, dtype=np.complex128)
    arr[a.lo_exp - lo : a.hi_exp - lo + 1] += a.coeffs
    arr[b.lo_exp - lo : b.hi_exp - lo + 1] += b.coeffs
    r_lo = max(a.reliable[0], b.reliable[0])
    r_hi = min(a.reliable[1], b.reliable[1])
    if r_lo > r_hi:
        raise WindowUnderflowError("window underflow: sum has empty reliable window")
    return LaurentSeries(lo, _frozen(arr), _merge_flavor(a, b), (r_lo, r_hi))


def combine(coeffs: Sequence, rows: Sequence[LaurentSeries]) -> LaurentSeries:
    """sum_k coeffs[k] * rows[k]: the coefficient vector times the rows
    stacked on the union of their stored windows.

    Flavor and reliable window are those a chain of ``add`` calls gives;
    no rows give the zero series.
    """
    if not rows:
        return zero()
    r_lo, r_hi = max(r.reliable[0] for r in rows), min(r.reliable[1] for r in rows)
    if r_lo > r_hi:
        raise WindowUnderflowError("window underflow: sum has empty reliable window")
    lo, hi = min(r.lo_exp for r in rows), max(r.hi_exp for r in rows)
    arr = np.asarray(coeffs, dtype=np.complex128) @ np.array([dense(r, lo, hi) for r in rows])
    return LaurentSeries(lo, _frozen(arr), _merge_flavor(*rows), (r_lo, r_hi))


def sub(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    return add(a, scale(b, -1.0))


def scale(a: LaurentSeries, factor) -> LaurentSeries:
    return LaurentSeries(a.lo_exp, _frozen(a.coeffs * complex(factor)), a.flavor, a.reliable)


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Windowed convolution product; reliability per module docstring."""
    reliable = _mul_reliable(a, b)
    arr = _frozen(np.convolve(a.coeffs, b.coeffs))
    return LaurentSeries(a.lo_exp + b.lo_exp, arr, _merge_flavor(a, b), reliable)


def powers(base: LaurentSeries, n: int, window=None) -> list:
    """[base, base**2, ..., base**n] by repeated multiplication; with
    ``window = (lo, hi)`` row k is clipped to the window widened by as far
    as the n - k factors still to come can carry a coefficient, so every
    row equals the unclipped power on the window."""
    rows = []
    for k in range(1, int(n) + 1):
        row = base if k == 1 else mul(rows[-1], base)
        if window is not None:
            row = clip(row, window[0] - (n - k) * max(base.hi_exp, 0),
                       window[1] + (n - k) * max(-base.lo_exp, 0))
        rows.append(row)
    return rows


def reciprocal_powers(a: LaurentSeries, n: int, depth: int, window) -> list:
    """[a**-1, ..., a**-n] for a = c * w**j * (1+u): row k is exp(-k log c) w**(-jk)
    times row k of the `powers` chain of the depth-``depth`` reciprocal of 1+u,
    whose leading term stays exactly 1, so the rounding of 1/c is not
    compounded k times.  Every row is exact on ``window = (lo, hi)``."""
    c, j, u = split_normalize(a)
    window = (window[0] + min(j, j * n), window[1] + max(j, j * n))
    rows = powers(_reciprocal(u, depth), n, window)
    scales = np.exp(-np.arange(1, n + 1) * np.log(c))
    return [LaurentSeries(row.lo_exp - j * k, _frozen(row.coeffs * s), row.flavor,
                          tuple(e - j * k for e in row.reliable))
            for k, (row, s) in enumerate(zip(rows, scales), 1)]


def derivative(a: LaurentSeries) -> LaurentSeries:
    """Termwise d/dw."""
    exps = np.arange(a.lo_exp, a.hi_exp + 1, dtype=np.float64)
    reliable = tuple(e - 1 for e in a.reliable)
    if a.width == 1 and a.lo_exp == 0:
        # derivative of a constant window: keep a well-formed zero window
        return LaurentSeries(0, np.zeros(1), a.flavor, reliable)
    return LaurentSeries(a.lo_exp - 1, _frozen(a.coeffs * exps), a.flavor, reliable)


# ---------------------------------------------------------------------------
# reduced products (single-coefficient extraction without full convolution)


def coeff_mul(a: LaurentSeries, b: LaurentSeries, k: int) -> complex:
    """Coefficient of w**k in a*b, via one dot product.

    The request must fall inside the reliability window of the (never
    materialized) product.
    """
    k = int(k)
    r_lo, r_hi = _mul_reliable(a, b)
    if not (r_lo <= k <= r_hi):
        raise WindowUnderflowError(
            f"window underflow: coefficient {k} outside reliable ({r_lo}, {r_hi})"
        )
    i_lo = max(a.lo_exp, k - b.hi_exp)
    i_hi = min(a.hi_exp, k - b.lo_exp)
    if i_lo > i_hi:
        return 0.0 + 0.0j
    sa = a.coeffs[i_lo - a.lo_exp : i_hi - a.lo_exp + 1]
    sb = b.coeffs[k - i_hi - b.lo_exp : k - i_lo - b.lo_exp + 1][::-1]
    return complex(np.dot(sa, sb))


def residue_mul(a: LaurentSeries, b: LaurentSeries) -> complex:
    """Residue (coefficient of w**-1) of a*b."""
    return coeff_mul(a, b, -1)


def residue_matrix(rows_a: Sequence[LaurentSeries],
                   rows_b: Sequence[LaurentSeries]) -> np.ndarray:
    """res(a_i * b_j) for every pair, as one matrix product.

    Every pair is checked by ``coeff_mul``'s rule first; the first
    failing pair in row-major order raises the error ``residue_mul``
    raises for it.
    """
    if not (rows_a and rows_b):
        return np.zeros((len(rows_a), len(rows_b)), dtype=np.complex128)

    def edges(rows):  # the lead of an all-zero row is NaN, and fmax/fmin skip it
        lo, hi = np.array([r.reliable for r in rows], dtype=np.float64).T
        return lo, hi, np.array([r.lead for r in rows], dtype=np.float64)

    a_lo, a_hi, a_lead = (x[:, None] for x in edges(rows_a))
    b_lo, b_hi, b_lead = edges(rows_b)
    bad = np.argwhere((np.fmax(a_lo + b_lead, b_lo + a_lead) > -1)
                      | (np.fmin(a_hi + b_lead, b_hi + a_lead) < -1))
    if bad.size:
        i, j = bad[0]
        residue_mul(rows_a[i], rows_b[j])  # raises the scalar path's error
    lo = min(a.lo_exp for a in rows_a)
    hi = max(a.hi_exp for a in rows_a)
    # column k of the right factor holds the coefficient of w**(-1-k)
    left = np.array([dense(a, lo, hi) for a in rows_a])
    right = np.array([dense(b, -1 - hi, -1 - lo)[::-1] for b in rows_b])
    return left @ right.T


# ---------------------------------------------------------------------------
# normalization, powers, logarithm


def split_normalize(a: LaurentSeries) -> tuple:
    """Factor a = c * w**j * (1 + u) exactly on the stored window.

    The leading term is taken in the flavor direction (lowest stored
    nonzero exponent for AT_ZERO, highest for AT_INFINITY); u has exactly
    zero constant term and decays strictly in the flavor direction.
    """
    if a.flavor not in (AT_ZERO, AT_INFINITY):
        raise SeriesError("split_normalize needs a germ flavor (AtZero or AtInfinity)")
    nz = np.nonzero(a.coeffs)[0]
    if nz.size == 0:
        raise NonInvertibleError("non-invertible leading term: zero series")
    idx = int(nz[0]) if a.flavor == AT_ZERO else int(nz[-1])
    c = complex(a.coeffs[idx])
    if abs(c) < 1e-300:
        raise NonInvertibleError("non-invertible leading term")
    j = a.lo_exp + idx
    arr = a.coeffs / c
    arr[idx] = 0.0  # subtract the leading 1 exactly
    return c, j, LaurentSeries(a.lo_exp - j, _frozen(arr), a.flavor,
                               tuple(e - j for e in a.reliable))


def _decay_step(u: LaurentSeries) -> int:
    """Smallest |exponent| of a nonzero term of u; 0 for the zero window."""
    nz = np.nonzero(u.coeffs)[0]
    if nz.size == 0:
        return 0
    if u.flavor == AT_ZERO:
        step = u.lo_exp + int(nz[0])
    else:
        step = -(u.lo_exp + int(nz[-1]))
    if step < 1:
        raise SeriesError("series must strictly decay in its flavor direction")
    return step


def _germ_array(u: LaurentSeries, n: int) -> np.ndarray:
    """Coefficients of u at local orders 0..n, dense.

    Local order i is the exponent ``i`` for AT_ZERO and ``-i`` for
    AT_INFINITY, so both flavors decay toward higher local orders.
    """
    if u.flavor == AT_ZERO:
        return dense(u, 0, n)
    return dense(u, -n, 0)[::-1].copy()


def _from_germ_array(local: np.ndarray, flavor: str, reliable: tuple) -> LaurentSeries:
    """Inverse of `_germ_array`: local orders 0..n back to exponents."""
    if flavor == AT_ZERO:
        return LaurentSeries(0, local, flavor, reliable)
    return LaurentSeries(1 - local.size, local[::-1], flavor, reliable)


def _germ_reliable(u: LaurentSeries, depth: int) -> tuple:
    """Reliability of a series in u truncated ``depth`` local orders out.

    min(depth, u's own edge) in the flavor direction, unbounded on the
    exact side.
    """
    if u.flavor == AT_ZERO:
        return (NEG_INF, min(depth, u.reliable[1]))
    return (max(-depth, u.reliable[0]), POS_INF)


def _power_sum_reach(u: LaurentSeries, step: int, depth: int) -> int:
    """Highest local order stored for a series in u truncated at ``depth``.

    Powers u**k with k * step <= depth are the ones that reach into the
    window, and u**k ends k times u's outermost stored order out.  Storing
    no further keeps sparse and short inputs narrow: orders past the reach
    are exactly zero in the truncated series.
    """
    if step == 0:
        return 0
    extent = u.hi_exp if u.flavor == AT_ZERO else -u.lo_exp
    return max(0, min(depth, (depth // step) * extent))


def _newton_reciprocal(a: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of 1/a for a dense power series with a[0] == 1.

    Newton doubling: r <- r * (2 - a * r) mod x**m doubles the number of
    correct coefficients per step, so ceil(log2 n) steps suffice.
    """
    r = np.ones(1, dtype=np.complex128)
    m = 1
    while m < n:
        m = min(2 * m, n)
        e = -np.convolve(a[:m], r)[:m]
        e[0] += 2.0
        r = np.convolve(r, e)[:m]
    return r


def _reciprocal(u: LaurentSeries, depth: int) -> LaurentSeries:
    """(1 + u)**-1 truncated ``depth`` orders out, by Newton doubling.

    u must have zero constant term and strict one-sided support in its
    flavor direction.  The result's reliability is claimed from the
    truncation analysis (`_germ_reliable`).
    """
    if abs(u.coeff(0)) != 0.0:
        raise SeriesError("reciprocal needs zero constant term")
    if u.flavor not in (AT_ZERO, AT_INFINITY):
        raise SeriesError("reciprocal needs a germ flavor")
    n = _power_sum_reach(u, _decay_step(u), depth)
    a = _germ_array(u, n)
    a[0] = 1.0
    return _from_germ_array(_newton_reciprocal(a, n + 1), u.flavor,
                            _germ_reliable(u, depth))


def _local_depth(depth, fallback_width: int) -> int:
    if depth is not None:
        return int(depth)
    return max(2 * int(fallback_width), 16)


def int_pow(a: LaurentSeries, k: int, depth: int | None = None) -> LaurentSeries:
    """Integer power a**k by repeated squaring; for k < 0, of the Newton-doubling
    reciprocal truncated ``depth`` local orders past the leading term."""
    k = int(k)
    if k == 0:
        return constant(1.0, a.flavor)
    if k < 0:
        c, j, u = split_normalize(a)
        inv = _reciprocal(u, _local_depth(depth, a.width))
        a, k = shift(scale(inv, 1.0 / c), -j), -k
    result, base = None, a
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def log1p(u: LaurentSeries, depth: int | None = None) -> LaurentSeries:
    """log(1 + u) truncated at ``depth``, as the integral of u' / (1 + u).

    In the local variable x (w for AT_ZERO, 1/w for AT_INFINITY) this is
    one Newton reciprocal, one product and a termwise integral from x = 0.
    u must have exactly zero constant term and strictly one-sided support
    in its flavor direction; the reliability claim is the reciprocal's.
    """
    if abs(u.coeff(0)) != 0.0:
        raise SeriesError("log1p: nonzero constant term")
    if u.flavor not in (AT_ZERO, AT_INFINITY):
        raise SeriesError("log1p needs a germ flavor (AtZero or AtInfinity)")
    depth = _local_depth(depth, u.width)
    step = _decay_step(u)
    if step == 0:
        return LaurentSeries(0, np.zeros(1), u.flavor, u.reliable)
    n = _power_sum_reach(u, step, depth)
    a = _germ_array(u, n)
    out = np.zeros(n + 1, dtype=np.complex128)
    if n:
        orders = np.arange(1, n + 1)
        du = a[1:] * orders
        a[0] = 1.0
        out[1:] = np.convolve(du, _newton_reciprocal(a, n))[:n] / orders
    return _from_germ_array(out, u.flavor, _germ_reliable(u, depth))


# ---------------------------------------------------------------------------
# evaluation and composition helpers


def eval_at_points(a: LaurentSeries, pts: np.ndarray) -> np.ndarray:
    """Evaluate the stored window at complex points (Horner)."""
    pts = np.asarray(pts, dtype=np.complex128)
    vals = np.full(pts.shape, a.coeffs[-1], dtype=np.complex128)
    for c in a.coeffs[-2::-1]:
        vals = vals * pts + c
    if a.lo_exp:
        vals = vals * pts ** float(a.lo_exp)
    return vals


def invert_function(a: LaurentSeries, depth: int | None = None) -> LaurentSeries:
    """Compositional inverse G with a(G(z)) = z, by Lagrange inversion.

    AT_ZERO input  a = a1*w + a2*w^2 + ...  (a1 != 0) gives G = z/a1 + ...
    on the window [1, 1 + depth], reliable up to that edge.  AT_INFINITY
    input a = b*w + b0 + b1/w + ... (b != 0) gives G = z/b - b0/b + ... on
    the window [1 - depth, 1], reliable down to that edge.  The input is
    read on the same window as the output, zero-padded or truncated; by
    default ``depth`` is read from the stored window (``hi_exp - 1`` or
    ``1 - lo_exp``, at least 1).
    Every other coefficient is a residue of a power of a: [z^n] G =
    res(a^-n) / n at zero, off one `reciprocal_powers` chain, and [z^-n] G =
    -res(a^n) / n at infinity, off one `powers` chain.  A residue reads
    only input coefficients inside the window, so the output is exact up
    to rounding there (a 40-digit oracle is asserted in the test-suite).
    """
    if a.flavor == AT_ZERO:
        form, stray = "a1*w + ...", a.lo_exp < 1 and np.any(a.coeffs[: 1 - a.lo_exp] != 0)
    elif a.flavor == AT_INFINITY:
        form, stray = "b*w + b0 + ...", a.hi_exp > 1 and np.any(a.coeffs[2 - a.lo_exp :] != 0)
    else:
        raise SeriesError("invert_function needs a germ flavor")
    if abs(a.coeff(1)) < 1e-300 or stray:
        raise NonInvertibleError(f"non-invertible leading term: need a = {form}")
    if a.flavor == AT_ZERO:
        depth = max(a.hi_exp - 1, 1) if depth is None else int(depth)
        window = (1, 1 + depth)
        chain = reciprocal_powers(LaurentSeries(1, dense(a, *window), AT_ZERO),
                                  depth + 1, depth, (-1, -1))
        out = np.array([row.coeff(-1) for row in chain]) / np.arange(1, depth + 2)
        reliable = (NEG_INF, window[1])
    else:
        depth = max(1 - a.lo_exp, 1) if depth is None else int(depth)
        window = (1 - depth, 1)
        chain = powers(LaurentSeries(window[0], dense(a, *window), AT_INFINITY),
                       depth - 1, (-1, -1))
        tail = -np.array([row.coeff(-1) for row in chain]) / np.arange(1, depth)
        b = a.coeff(1)
        out = np.concatenate([tail[::-1], [-a.coeff(0) / b, 1.0 / b]])
        reliable = (window[0], POS_INF)
    return LaurentSeries(window[0], out, a.flavor, reliable)


# ---------------------------------------------------------------------------
# circle division


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m <<= 1
    return m


def divide_on_circle(num: LaurentSeries, den: LaurentSeries,
                     window: tuple, samples: int = 1024) -> LaurentSeries:
    """Quotient num/den restricted to an exponent window.

    Samples both series at M-th roots of unity (M a power of two, at least
    4x the window width and at least ``samples``), divides pointwise and
    reads the window coefficients back off the discrete transform.  The
    denominator must stay away from zero on |w| = 1 (min sampled modulus
    > 1e-8).  Denominators with a single nonzero stored coefficient are
    divided exactly (shift and scale) instead of sampled.
    """
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise SeriesError("divide_on_circle: empty window")
    flavor = num.flavor if num.flavor == den.flavor else TWO_SIDED
    nz = np.nonzero(den.coeffs)[0]
    if nz.size == 0:
        raise CircleZeroError("denominator vanishes on circle")
    if nz.size == 1:
        c = complex(den.coeffs[nz[0]])
        j = den.lo_exp + int(nz[0])
        out = clip(shift(scale(num, 1.0 / c), -j), lo, hi)
        return LaurentSeries(lo, dense(out, lo, hi), flavor,
                             (max(out.reliable[0], lo), min(out.reliable[1], hi)))
    width = hi - lo + 1
    m = max(_next_pow2(4 * width), _next_pow2(int(samples)))
    pts = np.exp(2j * np.pi * np.arange(m) / m)
    den_vals = eval_at_points(den, pts)
    if float(np.min(np.abs(den_vals))) <= 1e-8:
        raise CircleZeroError("denominator vanishes on circle")
    num_vals = eval_at_points(num, pts)
    spec = np.fft.fft(num_vals / den_vals) / m
    arr = spec[np.mod(np.arange(lo, hi + 1), m)]
    return LaurentSeries(lo, arr, flavor, (lo, hi))


# ---------------------------------------------------------------------------
# comparison helper (used by checks and tests)


def max_abs_diff_reliable(a: LaurentSeries, b: LaurentSeries) -> float:
    """max |a_k - b_k| over the intersection of reliable windows.

    The scan is capped by the union of stored windows: outside both, both
    sides are exactly zero.  A NaN anywhere in the scan makes the result
    NaN.
    """
    r_lo = max(a.reliable[0], b.reliable[0])
    r_hi = min(a.reliable[1], b.reliable[1])
    if r_lo > r_hi:
        raise WindowUnderflowError("window underflow: no common reliable window")
    lo = min(a.lo_exp, b.lo_exp)
    hi = max(a.hi_exp, b.hi_exp)
    lo, hi = max(lo, r_lo), min(hi, r_hi)  # an infinite edge does not narrow the scan
    if lo > hi:
        return 0.0
    return float(np.max(np.abs(dense(a, lo, hi) - dense(b, lo, hi))))
