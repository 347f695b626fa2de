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
  infinite tail (chain rows of negative or cut integer powers,
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
Newton reciprocal and ``log1p``, taken as the integral of u' / (1 + u) on
that reciprocal, claim their output reliability from their truncation and
convergence analysis, and ``invert_function`` from Lagrange inversion
(each output coefficient is a residue of a power of the input that reads
only input coefficients inside the window), rather than from interval
propagation through every intermediate; round-trip identities and
40-digit oracles in the test-suite check those claims directly.

Power chains have one kernel, `_chain_rows`: the rows a**1..a**n or
a**-1..a**-n of a germ a = c * w**j * (1 + u), each exact to a depth past
its leading term (so cut only on its decaying side), kept once per sign
in one 2-D block.  A negative chain's block holds (1 + u)**-k, and every
read multiplies in c**-k with `np.multiply`, whose bits do not depend on
the layout read (a positive row is never multiplied, not even by 1).
`int_pow` reads one row as a series, `invert_function` gathers residues
off the block, and `Rows.chain` shifts the rows into exponent order, a
window that `residue_matrix` and `combine` read.

Reciprocals have one kernel, `_lift`: Newton's step computing only the
new half, so coefficient k in [2**i, 2**(i+1)) is always made from the
first 2**i and a deeper request never moves a bit of a shallower prefix.
A germ owns what is derived from it: `split_normalize` keeps (c, j, u) on
``a``, `_inverse` keeps 1/(1 + u) on u, grown to the end of the deepest
request's power-of-two block, and `_chain` keeps the store of each sign
on ``a``, grown in place to the longest and deepest request.  Every row
is a truncated product of prefixes, so `int_pow`, `Rows.chain` and
``log1p(u)`` read prefixes at any depth with the bits a fresh build
would give, and the rows die with the germ.

Ownership: ``LaurentSeries(...)`` validates and, where the array could
still be written, copies; it is the entry point for data from outside the
kernels.  A kernel that has just made an array, frozen it (`_frozen`) and
computed the other fields in canonical form (int ``lo_exp``, a known
flavor, a non-empty ``reliable`` of ints and infinite sentinels) wraps it
with `_owned` instead, which checks nothing: every such field is built
from already-validated series by rules that keep it canonical, and no
writeable reference to the array survives the kernel, so the series owns
it as if it had been copied.  A read-only slice of such an array is owned
the same way.

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
              base is writeable.
    flavor:   one of AT_ZERO / AT_INFINITY / TWO_SIDED.
    reliable: pair (r_lo, r_hi); ints or -inf/+inf sentinels.

    Construction validates every field; kernel output skips that through
    `_owned` under the ownership rule of the module docstring.
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
        """Exponent of the largest stored coefficient (ties: lowest); None if all
        are zero or NaN.  A NaN is no candidate: ``fmax`` reads it as 0."""
        mags = np.fmax(np.abs(self.coeffs), 0.0)
        k = int(mags.argmax())
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


def _owned(lo_exp: int, coeffs: np.ndarray, flavor: str, reliable: tuple) -> LaurentSeries:
    """A series on canonical kernel-made fields, unvalidated (ownership rule, module docstring)."""
    out = object.__new__(LaurentSeries)
    vars(out).update(lo_exp=lo_exp, coeffs=coeffs, flavor=flavor, reliable=reliable)
    return out


_ZERO = _frozen(np.zeros(1, dtype=np.complex128))  # the one-entry zero window, shared read-only
_ONE = _frozen(np.ones(1, dtype=np.complex128))  # 1 + u and its reciprocal before any request


def monomial(exponent: int, coefficient=1.0, flavor: str = TWO_SIDED) -> LaurentSeries:
    return LaurentSeries(int(exponent), np.array([coefficient], dtype=np.complex128), flavor)


def constant(value, flavor: str = TWO_SIDED) -> LaurentSeries:
    return monomial(0, value, flavor)


def zero(flavor: str = TWO_SIDED) -> LaurentSeries:
    return monomial(0, 0.0, flavor)


# ---------------------------------------------------------------------------
# flavor / reliability plumbing


def _is_exact(a: LaurentSeries) -> bool:
    return a.reliable == (NEG_INF, POS_INF)


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
    return _owned(*_cut(a.lo_exp, a.coeffs, a.flavor, a.reliable, int(lo), int(hi)))


def _cut(lo_exp: int, arr: np.ndarray, flavor: str, reliable: tuple, lo: int, hi: int) -> tuple:
    """`clip`'s (lo_exp, coeffs, flavor, reliable) of the series on canonical
    fields (``arr`` frozen kernel output)."""
    if lo > hi:
        raise SeriesError("clip: empty window requested")
    hi_exp = lo_exp + arr.size - 1
    r_lo, r_hi = reliable
    if lo_exp < lo and arr[: lo - lo_exp].any():  # a NaN counts as data, a -0.0 does not
        r_lo = max(r_lo, lo)
        if flavor == AT_ZERO:
            flavor = TWO_SIDED
    if hi_exp > hi and arr[max(hi - lo_exp + 1, 0) :].any():
        r_hi = min(r_hi, hi)
        if flavor == AT_INFINITY:
            flavor = TWO_SIDED
    if r_lo > r_hi:
        raise WindowUnderflowError("window underflow: clip removed all reliable data")
    new_lo, new_hi = max(lo, lo_exp), min(hi, hi_exp)
    if new_lo > new_hi:
        return lo, _ZERO, flavor, (r_lo, r_hi)
    return new_lo, arr[new_lo - lo_exp : new_hi - lo_exp + 1], flavor, (r_lo, r_hi)


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
        return _owned(anchor, _ZERO, a.flavor, (r_lo, r_hi))
    return _owned(s_lo, a.coeffs[s_lo - a.lo_exp: s_hi - a.lo_exp + 1], a.flavor, (r_lo, r_hi))


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
    return _owned(a.lo_exp + j, a.coeffs, a.flavor, tuple(e + j for e in a.reliable))


# ---------------------------------------------------------------------------
# stacked rows


class Rows:
    """Series stacked as one read-only block: ``block[i, k]`` is row i's
    coefficient of w**(lo + k), zero off its stored window ``stored[i]``;
    the block spans the union of those windows, and ``reliable[i]`` holds
    row i's edges (floats).  A block keeps no flavor: ``rows[i]`` is row i
    as a two-sided series, ``rows[a:b]`` a block.  `Rows.of` stacks series
    and blocks, `Rows.chain` cuts a germ's chain rows to a window."""

    def __init__(self, lo: int, block: np.ndarray, stored: np.ndarray, reliable: np.ndarray,
                 leads=None):
        block.setflags(write=False)
        self.lo, self.block, self.stored, self.reliable = lo, block, stored, reliable
        self._leads = leads  # None, or a callable giving a slice's or a stack's leads

    def __len__(self) -> int:
        return len(self.stored)

    def __getitem__(self, i):
        if isinstance(i, slice):  # a view, its columns cut to the rows' windows
            stored = self.stored[i]
            lo, hi = (int(stored[:, 0].min()), int(stored[:, 1].max())) if len(stored) else (
                self.lo, self.lo)
            return Rows(lo, self.block[i, lo - self.lo:hi - self.lo + 1], stored, self.reliable[i],
                        lambda: self.leads[i])
        s_lo, s_hi = self.stored[i].tolist()
        return _owned(s_lo, self.block[i, s_lo - self.lo:s_hi - self.lo + 1], TWO_SIDED,
                      _as_reliable(self.reliable[i].tolist()))

    @cached_property
    def leads(self) -> np.ndarray:
        """`LaurentSeries.lead` of every row, NaN for none; a slice's or stack's are its parts'."""
        if self._leads is not None:
            return self._leads()
        mags = np.fmax(np.abs(self.block), 0.0)
        k = mags.argmax(axis=1)
        return np.where(mags[np.arange(len(k)), k] == 0, np.nan, self.lo + k)

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """Every row's coefficients of w**lo .. w**hi, a fresh array."""
        out = np.zeros((len(self), hi - lo + 1), dtype=np.complex128)
        s_lo, s_hi = max(lo, self.lo), min(hi, self.lo + self.block.shape[1] - 1)
        if s_lo <= s_hi:
            out[:, s_lo - lo:s_hi - lo + 1] = self.block[:, s_lo - self.lo:s_hi - self.lo + 1]
        return out

    @staticmethod
    def of(parts) -> "Rows":
        """The rows of ``parts``, series or blocks, in order (a block itself)."""
        if isinstance(parts, Rows):
            return parts
        if not any(isinstance(p, Rows) for p in parts):  # each row on its own stored window
            stored = np.array([(p.lo_exp, p.hi_exp) for p in parts], dtype=np.int64).reshape(-1, 2)
            lo, hi = (int(stored[:, 0].min()), int(stored[:, 1].max())) if parts else (0, 0)
            block = np.zeros((len(parts), hi - lo + 1), dtype=np.complex128)
            for row, p in zip(block, parts):
                row[p.lo_exp - lo:p.hi_exp - lo + 1] = p.coeffs
            reliable = np.array([p.reliable for p in parts], dtype=float).reshape(-1, 2)
            known = all("lead" in vars(p) for p in parts)  # each series' own, if computed
            return Rows(lo, block, stored, reliable, (lambda: np.array(
                [np.nan if p.lead is None else p.lead for p in parts], float)) if known else None)
        parts = [p if isinstance(p, Rows) else Rows.of([p]) for p in parts]
        lo, hi = min(p.lo for p in parts), max(p.lo + p.block.shape[1] - 1 for p in parts)
        block, top = np.zeros((sum(map(len, parts)), hi - lo + 1), dtype=np.complex128), 0
        for p in parts:
            block[top:top + len(p), p.lo - lo:p.lo - lo + p.block.shape[1]] = p.block
            top += len(p)
        return Rows(lo, block, np.concatenate([p.stored for p in parts]),
                    np.concatenate([p.reliable for p in parts]),
                    lambda: np.concatenate([p.leads for p in parts]))

    @staticmethod
    def chain(a: LaurentSeries, n: int, lo: int, hi: int, depth: int | None = None) -> "Rows":
        """The rows a**1..a**n, or a**-1..a**-n for n < 0 (`_chain_rows`), cut
        to [lo, hi] (`cut`), by default deep enough to reach the window's end
        on their decaying side; a row its depth cuts short is stored to that
        end all the same, zero past its depth."""
        if depth is None:
            j = split_normalize(a)[1]
            leads = (j if n > 0 else -j, j * n)
            depth = max(hi - min(leads) if a.flavor == AT_ZERO else max(leads) - lo, 0)
        flavor, chain, step, tops, whole, edges = _chain_rows(a, n, depth)
        n, t, side = len(tops), tops[-1] + 1 if tops else 1, int(flavor == AT_ZERO)
        first, last = step + (side - 1) * (t - 1), step * n + (side - 1) * (t - 1)  # row starts
        e_lo, e_hi = (min(lo, first, last), max(hi, first + t - 1, last + t - 1)) if n else (lo, hi)
        block = np.zeros((n, e_hi - e_lo + 1), dtype=np.complex128)
        if n:  # one strided copy into exponent order, a row ``step`` columns after the last
            dst = np.ndarray((n, t), block.dtype, block, (first - e_lo) * block.itemsize, (
                (block.shape[1] + step) * block.itemsize, block.itemsize))
            src = chain.rows[:n, :t] if side else chain.rows[:n, t - 1::-1]
            if chain.scales:  # a negative chain, each row built to the t terms read
                np.multiply(src, np.array(chain.scales[:n])[:, None], out=dst)
            else:
                dst[...] = src
        lead = step * np.arange(1, n + 1)[:, None]
        stored = lead + np.array(tops, dtype=np.int64)[:, None] * ((0, 1) if side else (-1, 0))
        ends = stored[whole:, side]  # a row its depth cuts short is stored to the window's end
        (np.minimum, np.maximum)[side](ends, (lo, hi)[side], out=ends)
        return Rows(e_lo, block, stored, np.take(edges, np.arange(n) >= whole, axis=0) + lead
                    ).cut(lo, hi)

    def cut(self, lo: int, hi: int) -> "Rows":
        """The rows cut to [lo, hi] as `clip` cuts each: a dropped NaN counts
        as data and a -0.0 does not, and a row with nothing left keeps a zero at lo."""
        left, right, reliable = max(lo - self.lo, 0), max(hi + 1 - self.lo, 0), self.reliable.copy()
        if left or right < self.block.shape[1]:  # an edge moves to the cut where data is dropped
            np.maximum(reliable[:, 0], lo, out=reliable[:, 0], where=self.block[:, :left].any(1))
            np.minimum(reliable[:, 1], hi, out=reliable[:, 1], where=self.block[:, right:].any(1))
            if (reliable[:, 0] > reliable[:, 1]).any():
                raise WindowUnderflowError("window underflow: clip removed all reliable data")
        stored = np.minimum(np.maximum(self.stored, lo), hi)
        stored[(self.stored[:, 0] > hi) | (self.stored[:, 1] < lo)] = lo
        b_lo, b_hi = (int(stored[:, 0].min()), int(stored[:, 1].max())) if len(self) else (0, 0)
        return Rows(b_lo, self.dense(b_lo, b_hi), stored, reliable)

    def derivative(self) -> "Rows":
        """`derivative` of every row: the block scaled by its exponents, one
        lower (a zero off a row's stored window may turn -0.0)."""
        exps = np.arange(self.lo, self.lo + self.block.shape[1], dtype=np.float64)
        return Rows(self.lo - 1, self.block * exps, self.stored - 1, self.reliable - 1)


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
    return _owned(lo, _frozen(arr), _merge_flavor(a, b), (r_lo, r_hi))


def combine(coeffs: Sequence, rows) -> LaurentSeries:
    """sum_k coeffs[k] * rows[k]: the coefficient vector times the block of
    ``rows`` (`Rows`, or series that `Rows.of` stacks).

    Flavor and reliable window are those a chain of ``add`` calls gives (a
    block's sum is two-sided); no rows give the zero series.
    """
    if not len(rows):
        return zero()
    flavor = TWO_SIDED if isinstance(rows, Rows) else _merge_flavor(*rows)
    rows = Rows.of(rows)
    r_lo, r_hi = _as_reliable((rows.reliable[:, 0].max(), rows.reliable[:, 1].min()))
    if r_lo > r_hi:
        raise WindowUnderflowError("window underflow: sum has empty reliable window")
    arr = np.asarray(coeffs, dtype=np.complex128) @ np.ascontiguousarray(rows.block)
    return _owned(rows.lo, _frozen(arr), flavor, (r_lo, r_hi))


def sub(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    return add(a, scale(b, -1.0))


def scale(a: LaurentSeries, factor) -> LaurentSeries:
    return _owned(a.lo_exp, _frozen(a.coeffs * complex(factor)), a.flavor, a.reliable)


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Windowed convolution product; reliability per module docstring."""
    reliable = _mul_reliable(a, b)
    arr = _frozen(np.convolve(a.coeffs, b.coeffs))
    return _owned(a.lo_exp + b.lo_exp, arr, _merge_flavor(a, b), reliable)


def derivative(a: LaurentSeries) -> LaurentSeries:
    """Termwise d/dw."""
    exps = np.arange(a.lo_exp, a.hi_exp + 1, dtype=np.float64)
    reliable = tuple(e - 1 for e in a.reliable)
    if a.width == 1 and a.lo_exp == 0:
        # derivative of a constant window: keep a well-formed zero window
        return _owned(0, _ZERO, a.flavor, reliable)
    return _owned(a.lo_exp - 1, _frozen(a.coeffs * exps), a.flavor, reliable)


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


def residue_matrix(rows_a, rows_b) -> np.ndarray:
    """res(a_i * b_j) for every pair of rows (`Rows`, or series `Rows.of`
    stacks), as one matrix product: a's block against b's reflected.

    Every pair is checked by ``coeff_mul``'s rule first; the first
    failing pair in row-major order raises the error ``residue_mul``
    raises for it.  A stored coefficient multiplies only stored ones, as
    in ``coeff_mul``: a non-finite entry of the dense product, which may
    pair a NaN with a zero outside the other row (0 * NaN), is read again
    by ``residue_mul``.
    """
    a, b = Rows.of(rows_a), Rows.of(rows_b)
    if not (len(a) and len(b)):
        return np.zeros((len(a), len(b)), dtype=np.complex128)
    a_lo, a_hi, a_lead = a.reliable[:, :1], a.reliable[:, 1:], a.leads[:, None]
    bad = np.argwhere((np.fmax(a_lo + b.leads, b.reliable[:, 0] + a_lead) > -1)
                      | (np.fmin(a_hi + b.leads, b.reliable[:, 1] + a_lead) < -1))
    if bad.size:
        i, j = bad[0]
        residue_mul(a[i], b[j])  # raises the scalar path's error
    # column k of the right factor holds the coefficient of w**(-1-k-lo)
    right = np.ascontiguousarray(b.dense(-a.lo - a.block.shape[1], -1 - a.lo)[:, ::-1])
    out = np.ascontiguousarray(a.block) @ right.T
    for i, j in np.argwhere(~np.isfinite(out)):
        out[i, j] = residue_mul(a[i], b[j])
    return out


# ---------------------------------------------------------------------------
# normalization, powers, logarithm


def split_normalize(a: LaurentSeries) -> tuple:
    """Factor a = c * w**j * (1 + u) exactly on the stored window.

    The leading term is taken in the flavor direction (lowest stored
    nonzero exponent for AT_ZERO, highest for AT_INFINITY); u has exactly
    zero constant term and decays strictly in the flavor direction.  Kept
    on ``a``: the same object gives the same u, and so the same `_inverse`.
    """
    if "split" in vars(a):
        return vars(a)["split"]
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
    u = _owned(a.lo_exp - j, _frozen(arr), a.flavor, tuple(e - j for e in a.reliable))
    vars(a)["split"] = (c, j, u)
    return c, j, u


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


def _from_germ_array(local: np.ndarray, flavor: str, reliable: tuple) -> LaurentSeries:
    """Local orders 0..n (`_inverse`) back to exponents."""
    local = _frozen(local)
    if flavor == AT_ZERO:
        return _owned(0, local, flavor, reliable)
    return _owned(1 - local.size, local[::-1], flavor, reliable)


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


def _lift(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """1/a to a.size terms (a[0] == 1), extending r = 1/a mod x**r.size by
    r <- r - r * (a * r - 1): terms [m, 2m), m a power of two, from r[:m] and
    a[1:2m]; a call that stops inside a block sums the same products."""
    while r.size < a.size:
        m = 1 << (r.size.bit_length() - 1)
        top = min(2 * m, a.size)
        e = np.convolve(a[1:top], r[:m], "valid")  # (a * r)[m:top]; its lower terms are 1, 0, ...
        r = np.concatenate([r, -np.convolve(r[: top - m], e)[r.size - m : top - m]])
    return r


def _local(a: LaurentSeries, n: int) -> np.ndarray:
    """Coefficients of a germ at local orders 0..n-1, a fresh array.  Local
    order i is the exponent i for AT_ZERO and -i for AT_INFINITY, so both
    flavors decay toward higher local orders."""
    return dense(a, 0, n - 1) if a.flavor == AT_ZERO else dense(a, 1 - n, 0)[::-1].copy()


def _inverse(u: LaurentSeries, n: int) -> tuple:
    """(1 + u, 1/(1 + u)) at local orders 0..n-1 at least, kept on u (module
    docstring) and grown to the end of n's power-of-two block, which `_lift`
    computes in one step whatever prefix it starts from."""
    a, r = vars(u).get("inverse", (_ONE, _ONE))
    if r.size < n:
        a = _local(u, 1 << (n - 1).bit_length())
        a[0] = 1.0
        a, r = _frozen(a), _frozen(_lift(a, r))
        vars(u)["inverse"] = (a, r)
    return a, r


def _chain_rows(a: LaurentSeries, n: int, depth) -> tuple:
    """(flavor, chain, step, tops, whole, edges) of the rows a**1..a**n, or
    a**-1..a**-n for n < 0, of a germ: the one entry every reader of a chain
    takes its depth through.  Row k is ``chain.rows[k - 1]``, times
    ``chain.scales[k - 1]`` for n < 0, to local order tops[k - 1] past the
    exponent step * k.  The first ``whole`` rows end there (edges[0]), the
    rest are cut at ``depth`` on their decaying side (edges[1]): exact there
    and reliable to u's own edge.  A negative chain needs a depth."""
    s, n = (1, int(n)) if n >= 0 else (-1, -int(n))
    depth = POS_INF if depth is None else int(depth)
    if s < 0 and depth == POS_INF:
        raise SeriesError("negative powers need a depth")
    _, j, u = split_normalize(a)
    nz = np.nonzero(u.coeffs)[0]
    x = 0 if not nz.size else (u.lo_exp + int(nz[-1]) if u.flavor == AT_ZERO
                               else -(u.lo_exp + int(nz[0])))
    # a**k ends k * x local orders out, and 1/(1 + u) ends only for u = 0
    whole = n if x == 0 or s > 0 and depth == POS_INF else min(n, depth // x) if s > 0 else 0
    tops = [k * x for k in range(1, whole + 1)] + [depth] * (n - whole)
    edges = _germ_reliable(u, POS_INF if s > 0 else depth), _germ_reliable(u, depth)
    return u.flavor, _chain(a, s, tops, x), s * j, tops, whole, edges


class _Chain:
    """`_chain`'s store of one sign: row k - 1 of the block ``rows`` holds a**k,
    or (1 + u)**-k, to local order sizes[k - 1] - 1; ``scales[k - 1]`` = c**-k."""

    def __init__(self):
        self.rows, self.sizes, self.scales = np.zeros((0, 0), dtype=np.complex128), [], []


def _chain(a: LaurentSeries, s: int, tops: list, x: int) -> _Chain:
    """The chain of sign ``s`` kept on ``a``, rows k = 1..len(tops) built or
    grown in place to local order tops[k-1]: a**k, or (1 + u)**-k and its
    scale c**-k.  A built entry is never written again.  The k-th power is
    one truncated product of a prefix of the (k-1)-th with a prefix of the
    base, a from its leading term on (x its outermost nonzero local order)
    or `_inverse`'s reciprocal (leading term exactly 1: the rounding of 1/c
    is not compounded), so a deeper row starts with the bits of a shallower
    one and no row depends on which request built it."""
    c, j, u = split_normalize(a)
    chain = vars(a).setdefault(("powers", s), _Chain())
    want = [top + 1 for top in tops]
    sizes = chain.sizes + [0] * (len(want) - len(chain.sizes))
    if all(m <= done for m, done in zip(want, sizes)):
        return chain
    base = _frozen(_local(shift(a, -j), x + 1)) if s > 0 else _inverse(u, max(want))[1]
    need, old = (len(sizes), max(want)), chain.rows.shape
    if need[0] > old[0] or need[1] > old[1]:  # one copy, twice as long where too short
        rows = np.zeros([max(n, 2 * o) if n > o else o for n, o in zip(need, old)], complex)
        rows[:old[0], :old[1]], chain.rows = chain.rows, rows
    chain.rows.setflags(write=True)
    for k, (m, done) in enumerate(zip(want, sizes), 1):
        if done < m:
            power = base[:m] if k == 1 else np.convolve(chain.rows[k - 2, :min(m, sizes[k - 2])],
                                                        base[:m])[:m]
            chain.rows[k - 1, done:power.size], sizes[k - 1] = power[done:], power.size
    chain.rows.setflags(write=False)
    if s < 0:  # c**-k of each new row k
        log_c, have = np.log(c), len(chain.scales)
        chain.scales += [np.exp(-k * log_c) for k in range(have + 1, len(want) + 1)]
    chain.sizes = sizes
    return chain


def int_pow(a: LaurentSeries, k: int, depth: int | None = None) -> LaurentSeries:
    """a**k of a germ: row k of its chain (`_chain_rows`), ``depth`` local
    orders past the leading term (needed for k < 0), a view of the store for
    k > 0 and scaled off it for k < 0; 1 for k = 0."""
    k = int(k)
    if k == 0:
        return constant(1.0, a.flavor)
    flavor, chain, step, tops, whole, edges = _chain_rows(a, k, depth)
    n, top, up, lead = abs(k), tops[-1], flavor == AT_ZERO, step * abs(k)
    row = chain.rows[n - 1, :top + 1] if up else chain.rows[n - 1, top::-1]
    row = row if k > 0 else _frozen(np.multiply(row, chain.scales[n - 1]))
    return _owned(lead if up else lead - top, row, flavor,
                  tuple(e + lead for e in edges[n > whole]))


def log1p(u: LaurentSeries, depth: int) -> LaurentSeries:
    """log(1 + u) truncated at ``depth``, as the integral of u' / (1 + u).

    In the local variable x (w for AT_ZERO, 1/w for AT_INFINITY) this is
    one product with a prefix of u's reciprocal (`_inverse`) and a termwise
    integral from x = 0.
    u must have exactly zero constant term and strictly one-sided support
    in its flavor direction; the reliability claim is the reciprocal's.
    """
    if abs(u.coeff(0)) != 0.0:
        raise SeriesError("log1p: nonzero constant term")
    if u.flavor not in (AT_ZERO, AT_INFINITY):
        raise SeriesError("log1p needs a germ flavor (AtZero or AtInfinity)")
    depth = int(depth)
    step = _decay_step(u)
    if step == 0:
        return _owned(0, _ZERO, u.flavor, u.reliable)
    n = _power_sum_reach(u, step, depth)
    out = np.zeros(n + 1, dtype=np.complex128)
    if n:
        a, r = _inverse(u, n + 1)
        orders = np.arange(1, n + 1)
        out[1:] = np.convolve(a[1 : n + 1] * orders, r[:n])[:n] / orders
    return _from_germ_array(out, u.flavor, _germ_reliable(u, depth))


# ---------------------------------------------------------------------------
# functional inversion


def invert_function(a: LaurentSeries, depth: int) -> LaurentSeries:
    """Compositional inverse G with a(G(z)) = z, by Lagrange inversion.

    AT_ZERO input  a = a1*w + a2*w^2 + ...  (a1 != 0) gives G = z/a1 + ...
    on the window [1, 1 + depth], reliable up to that edge.  AT_INFINITY
    input a = b*w + b0 + b1/w + ... (b != 0) gives G = z/b - b0/b + ... on
    the window [1 - depth, 1], reliable down to that edge.  The input is
    read on the same window as the output, zero-padded or truncated.
    Every other coefficient is a residue of a power of a: [z^n] G =
    res(a^-n) / n at zero and [z^-n] G = -res(a^n) / n at infinity, each
    off a's own chain, which other readers share.  A residue reads only
    input coefficients inside the window, and chain rows are prefix-stable,
    so the output is exact up to rounding there (a 40-digit oracle is
    asserted in the test-suite).
    """
    if a.flavor == AT_ZERO:
        form, stray = "a1*w + ...", a.lo_exp < 1 and np.any(a.coeffs[: 1 - a.lo_exp] != 0)
    elif a.flavor == AT_INFINITY:
        form, stray = "b*w + b0 + ...", a.hi_exp > 1 and np.any(a.coeffs[2 - a.lo_exp :] != 0)
    else:
        raise SeriesError("invert_function needs a germ flavor")
    if abs(a.coeff(1)) < 1e-300 or stray:
        raise NonInvertibleError(f"non-invertible leading term: need a = {form}")
    zero_side, depth = a.flavor == AT_ZERO, int(depth)
    # res(a**-k), k = 1..depth + 1, at zero; res(a**k), k = 1..depth - 1, at infinity
    _, chain, _, tops, _, _ = _chain_rows(a, -depth - 1 if zero_side else depth - 1, depth)
    k, tops = np.arange(len(tops)), np.array(tops, dtype=np.int64)
    at = k if zero_side else k + 2  # row k + 1's local order of w**-1, stored up to its top
    res = chain.rows[k, np.minimum(at, tops)]  # scaled by c**-k on a negative chain
    res = np.where(at <= tops, np.multiply(res, chain.scales[:len(k)]) if zero_side else res, 0)
    if zero_side:
        return LaurentSeries(1, res / np.arange(1, depth + 2), a.flavor, (NEG_INF, 1 + depth))
    tail, b = -res / np.arange(1, depth), a.coeff(1)
    out = np.concatenate([tail[::-1], [-a.coeff(0) / b, 1.0 / b]])
    return LaurentSeries(1 - depth, out, a.flavor, (1 - depth, POS_INF))


# ---------------------------------------------------------------------------
# circle division


def _sampled(rows, m: int) -> np.ndarray:
    """Each series at the m-th roots of unity: one inverse FFT of its window folded mod m."""
    folded = np.zeros((len(rows), m), dtype=np.complex128)
    for out, a in zip(folded, rows):
        np.add.at(out, np.arange(a.lo_exp, a.hi_exp + 1) % m, a.coeffs)
    return np.fft.ifft(folded, norm="forward")


def divide_on_circle(rows, den: LaurentSeries, samples: int = 1024) -> list:
    """Quotients num/den on exponent windows, one per (num, window) of ``rows``.

    A quotient samples both series at the M-th roots of unity (M the least
    power of two >= 4x its window width and >= ``samples``) by one FFT of
    each stored window folded mod M, divides pointwise and reads its window
    off the transform back.  Rows of one M share the sampled denominator and
    one batched FFT; no row depends on another.  The denominator must stay
    off zero on |w| = 1 (sampled modulus > 1e-8 at every M); one with a
    single nonzero coefficient divides exactly (shift and scale) instead.
    """
    rows = list(rows)
    windows = [(int(w[0]), int(w[1])) for _, w in rows]
    if any(lo > hi for lo, hi in windows):
        raise SeriesError("divide_on_circle: empty window")
    flavors = [a.flavor if a.flavor == den.flavor else TWO_SIDED for a, _ in rows]
    nz = np.nonzero(den.coeffs)[0]
    if nz.size == 0:
        raise CircleZeroError("denominator vanishes on circle")
    if nz.size == 1:
        c, j = complex(den.coeffs[nz[0]]), den.lo_exp + int(nz[0])
        exact = [clip(shift(scale(a, 1.0 / c), -j), *w) for (a, _), w in zip(rows, windows)]
        return [LaurentSeries(lo, dense(q, lo, hi), flavor,
                              (max(q.reliable[0], lo), min(q.reliable[1], hi)))
                for q, (lo, hi), flavor in zip(exact, windows, flavors)]
    out = [None] * len(rows)
    sizes = [1 << (max(4 * (hi - lo + 1), int(samples)) - 1).bit_length() for lo, hi in windows]
    for m in sorted(set(sizes)):
        batch = [i for i, size in enumerate(sizes) if size == m]
        den_vals = _sampled([den], m)[0]
        if float(np.min(np.abs(den_vals))) <= 1e-8:
            raise CircleZeroError("denominator vanishes on circle")
        spec = np.fft.fft(_sampled([rows[i][0] for i in batch], m) / den_vals) / m
        for i, row in zip(batch, spec):
            lo, hi = windows[i]
            out[i] = _owned(lo, _frozen(row[np.mod(np.arange(lo, hi + 1), m)]), flavors[i],
                            (lo, hi))
    return out


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
