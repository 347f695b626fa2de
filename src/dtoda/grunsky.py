"""Faber polynomials and the four-quadrant Grunsky coefficient table.

For a pair (g, f) the Faber polynomial of index n is the polynomial part
of a power of the map: for n >= 1 the nonnegative-exponent truncation of
g(w)**n, for n <= -1 the nonpositive-exponent truncation of f(w)**n, and
index 0 stands symbolically for log w.  :func:`faber` returns P_n as an
exact ``LaurentSeries``; index 0 has no series and raises.

The table entries b(m, n), |m|, |n| <= N, are defined by the bivariate
log-kernel expansions of the pair's inverse maps G = g^{-1}, F = f^{-1}:

    log[(G(z1) - G(z2)) / (z1 - z2)] = b00 - sum_{m,n>=1} b(m,n)  z1^-m z2^-n
    log[(F(z1) - F(z2)) / (z1 - z2)] = -b00 - sum_{m,n>=1} b(-m,-n) z1^m z2^n
    log[(G(z1) - F(z2)) / z1]        = b00 - sum_{m>=1} b(m,0) z1^-m
                                           - sum_{m,n>=1} b(m,-n) z1^-m z2^n
    log(G(z)/z) = b00 - sum b(m,0) z^-m,   log(F(z)/z) = -b00 - sum b(0,-m) z^m

with b00 = -log b (principal branch).  Two independent computations are
provided:

* :func:`grunsky_table` — the primary path, pure residue extraction in the
  w-parametrization (no functional inversion): with P_n the Faber
  polynomial,

      n b(n, m)   = res(P_n g^{m-1} g'),     n b(n, -m)  = res(P_n f^{-m-1} f'),
      n b(n, 0)   = res(P_n f^{-1} f'),     -n b(-n, 0)  = res(P_{-n} g^{-1} g'),
      n b(-n, -m) = res(P_{-n} f^{-m-1} f'), n b(-n, m)  = res(P_{-n} g^{m-1} g'),
      b(0, m)     = res(log(g/w) g^{m-1} g'), b(0, -m)   = res(log(f/w) f^{-m-1} f'),

  where log(g/w) = log b + log(1+u_g) and log(f/w) = -log b + log(1+u_f)
  share one branch constant so the two halves pair consistently.

* :func:`grunsky_via_inverse` — the oracle path: inverts both maps (at
  depth 2N+4 so corner entries are unaffected by inversion truncation)
  and expands the kernel logarithms formally as truncated bivariate power
  series; no residue pairing is involved.  The bivariate log L = log(1+W)
  is solved row by row in z1 from theta L * (1 + W) = theta W, theta =
  z1 d/dz1 (:func:`_log2d`).

The Faber polynomials read only orders 0..|n| of a power, so :func:`faber`
clips every partial product of the power to the exponents that can still
reach those orders.  A primary-path table carries the 2N polynomials it
was built from (``GrunskyTable.faber``); :func:`faber_expansion_defect`
and :func:`b_polynomial` read them there instead of rebuilding them.

The symmetry b(m, n) = b(n, m) is *not* imposed: both triangles (and the
0-row against the 0-column) are computed independently and the observed
defect is recorded on the table.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import series as S
from .conformal_pair import ConformalPair
from .coords import _paired_logs
from .series import (
    AT_INFINITY,
    AT_ZERO,
    LaurentSeries,
    SeriesError,
)


@dataclass(frozen=True)
class GrunskyTable:
    """Dense coefficient table b(m, n) for |m|, |n| <= order.

    ``faber`` maps 1 <= |n| <= order to the exact series P_n the residue
    path read the entries against (empty on oracle tables); ``repr`` and
    ``==`` leave it out.
    """

    order: int
    b: dict
    b00: complex
    symmetry_defect: float
    faber: dict = field(default_factory=dict, repr=False, compare=False)

    def entry(self, m: int, n: int) -> complex:
        return self.b[(int(m), int(n))]


def _windowed_power(base: LaurentSeries, k: int, window) -> LaurentSeries:
    """base**k (k >= 1) with each partial product of r copies clipped to window(r).

    The products run in ``series.int_pow``'s repeated-squaring order, so
    inside the windows only the summation order of each convolution
    differs from the full-width power.
    """
    result, copies = None, 0
    base, base_copies = S.clip(base, *window(1)), 1
    while k:
        if k & 1:
            copies += base_copies
            result = base if result is None else \
                S.clip(S.mul(result, base), *window(copies))
        k >>= 1
        if k:
            base_copies *= 2
            base = S.clip(S.mul(base, base), *window(base_copies))
    return result


def faber(pair: ConformalPair, n: int) -> LaurentSeries:
    """P_n as an exact series: the polynomial part of g**n (n >= 1) or f**n (n <= -1).

    g**n is built from r-fold partial products kept on exponents
    [-(n-r), r]: the other n - r factors reach no higher than n - r, so
    lower exponents cannot land on 0..n.  f**n is the |n|-th power of
    the depth-(2|n|+8) reciprocal of f, whose r-fold partial products are
    kept on [-r, |n|-r] for the mirrored reason.  Index 0 stands for
    log w, which has no polynomial part, and raises.
    """
    n = int(n)
    if abs(n) > pair.order:
        raise SeriesError(f"faber index {n} exceeds pair order {pair.order}")
    if n == 0:
        raise SeriesError("index-0 polynomial is symbolic (log w); no series form")
    if n >= 1:
        p = _windowed_power(pair.g, n, lambda r: (r - n, r))
    else:
        m = -n
        rec = S.int_pow(pair.f, -1, depth=2 * m + 8)
        p = _windowed_power(rec, m, lambda r: (-r, m - r))
        for k in (n, 0):  # the reliable window is an interval: its ends suffice
            p.reliable_coeff(k)
    lo, hi = min(n, 0), max(n, 0)
    return LaurentSeries.from_pairs(zip(range(lo, hi + 1), S.dense(p, lo, hi)))


def b_polynomial(table: GrunskyTable, n: int) -> LaurentSeries:
    """The table's polynomial P_n with its constant term halved.

    P_n - (n/2) b(n,0) for either sign of n: the constant becomes half
    the full power's mean term.  P_n is the one ``table.faber`` carries,
    so index 0 (whose analogue log w callers handle symbolically) and
    oracle tables are rejected.
    """
    n = int(n)
    if n not in table.faber:
        raise SeriesError(f"table carries no polynomial of index {n}")
    return S.add(table.faber[n], S.constant(-(n / 2.0) * table.entry(n, 0)))


# ---------------------------------------------------------------------------
# primary path: residue extraction in w


def _chain_window(pair: ConformalPair, n_max: int):
    """Reciprocal depth and clip window of the order-n_max power chains."""
    reach = pair.order + n_max + 6
    return 2 * pair.order + 12, -reach, reach


def grunsky_table(pair: ConformalPair, order: int) -> GrunskyTable:
    """Full table by residue extraction (primary path), carrying its P_n."""
    n_max = int(order)
    if n_max > pair.order or n_max < 1:
        raise SeriesError(f"table order {n_max} must lie in [1, pair order {pair.order}]")
    g, f = pair.g, pair.f
    gp, fp = pair.g_prime(), pair.f_prime()
    depth, cl_lo, cl_hi = _chain_window(pair, n_max)

    # weight series: E_g[m] = g^{m-1} g' (m = 1..N), E_g0 = g^{-1} g'
    e_g = []
    g_pow = S.constant(1.0, AT_INFINITY)
    for m in range(1, n_max + 1):
        e_g.append(S.clip(S.mul(g_pow, gp), cl_lo, cl_hi))
        g_pow = S.clip(S.mul(g_pow, g), cl_lo, cl_hi)
    g_inv = S.int_pow(g, -1, depth=depth)
    e_g0 = S.clip(S.mul(g_inv, gp), cl_lo, cl_hi)

    f_inv = S.int_pow(f, -1, depth=depth)
    e_f = []
    f_pow = f_inv
    e_f0 = S.clip(S.mul(f_inv, fp), cl_lo, cl_hi)
    for _ in range(1, n_max + 1):
        f_pow = S.clip(S.mul(f_pow, f_inv), cl_lo, cl_hi)
        e_f.append(S.clip(S.mul(f_pow, fp), cl_lo, cl_hi))

    p = {n: faber(pair, n) for n in range(-n_max, n_max + 1) if n}
    lb = cmath.log(pair.b)
    log_g, log_f = _paired_logs(pair, depth)

    b: dict = {(0, 0): -lb}
    for n in range(1, n_max + 1):
        pn, pm = p[n], p[-n]
        b[(n, 0)] = S.residue_mul(pn, e_f0) / n
        b[(-n, 0)] = -S.residue_mul(pm, e_g0) / n
        b[(0, n)] = S.residue_mul(log_g, e_g[n - 1])
        b[(0, -n)] = S.residue_mul(log_f, e_f[n - 1])
        for m in range(1, n_max + 1):
            b[(n, m)] = S.residue_mul(pn, e_g[m - 1]) / n
            b[(n, -m)] = S.residue_mul(pn, e_f[m - 1]) / n
            b[(-n, -m)] = S.residue_mul(pm, e_f[m - 1]) / n
            b[(-n, m)] = S.residue_mul(pm, e_g[m - 1]) / n

    return GrunskyTable(n_max, b, -lb, _symmetry_defect(b, n_max), p)


def _symmetry_defect(b: dict, n_max: int) -> float:
    out = 0.0
    rng = range(-n_max, n_max + 1)
    for m in rng:
        for n in rng:
            if m < n:
                out = max(out, abs(b[(m, n)] - b[(n, m)]))
    return out


# ---------------------------------------------------------------------------
# oracle path: functional inversion and formal bivariate log expansion


def _log2d(w: np.ndarray) -> np.ndarray:
    """log(1 + W) for a bivariate truncation W with W[0,0] = 0.

    Row i holds the coefficients of z1**i.  With theta = z1 d/dz1,
    theta L * (1 + W) = theta W; row 0 of 1 + W is A = 1 + W[0,:], so

        i L[i] * A = i W[i] - sum_{k=1}^{i-1} k L[k] * W[i-k],

    with * the product truncated in z2.  Row 0 is the univariate
    log(A); each later row is one sum over k and one multiplication by
    1/A.  The truncated products are matrix products with the rows of W
    laid out as upper-triangular Toeplitz matrices, read through a
    strided view of the zero-padded W (no copy).
    """
    n1, n2 = w.shape[0] - 1, w.shape[1] - 1
    if w[0, 0] != 0:
        raise SeriesError("bivariate log needs zero constant term")
    row0 = LaurentSeries(0, w[0], AT_ZERO)
    out = np.zeros((n1 + 1, n2 + 1), dtype=np.complex128)
    out[0] = S.dense(S.log1p(row0, depth=n2), 0, n2)
    if n1 == 0:
        return out
    inv_a = S.dense(S.int_pow(S.add(S.constant(1.0, AT_ZERO), row0), -1, depth=n2),
                    0, n2)
    padded = np.zeros((n1 + 1, 2 * n2 + 1), dtype=np.complex128)
    padded[:, n2:] = w
    # toeplitz[i][l, j] = W[i, j - l] for j >= l, else 0
    toeplitz = sliding_window_view(padded, n2 + 1, axis=1)[:, ::-1, :]
    theta = np.zeros_like(out)
    for i in range(1, n1 + 1):
        rhs = i * w[i] - np.einsum("kl,klj->j", theta[1:i], toeplitz[i - 1:0:-1])
        theta[i] = np.convolve(rhs, inv_a)[: n2 + 1]
        out[i] = theta[i] / i
    return out


def grunsky_via_inverse(pair: ConformalPair, order: int) -> GrunskyTable:
    """Full table from the inverse maps and formal kernel-log expansions.

    Treats the pair's stored windows as exact map data (true for
    polynomial pairs); the inversions run at depth 2*order + 4 so that
    every extracted entry is limited by machine precision rather than by
    inversion truncation.  Each kernel is written as c (1 + W) with W a
    bivariate truncation on [0..order] x [0..order], and its logarithm is
    solved row by row in z1 (`_log2d`): row 0 is a univariate log, and
    every later row costs one sum of truncated z2-products of the rows
    already solved and one multiplication by the reciprocal of row 0.
    """
    n_max = int(order)
    if n_max > pair.order or n_max < 1:
        raise SeriesError(f"table order {n_max} must lie in [1, pair order {pair.order}]")
    depth = 2 * n_max + 4
    # g is read on [-depth, 1] and f on [1, depth + 1]
    big_g = S.invert_function(pair.g, depth + 1)
    big_f = S.invert_function(pair.f, depth)
    beta = big_g.coeff(1)
    alpha1 = big_f.coeff(1)
    b00 = cmath.log(beta)

    n1 = n_max
    # G-G kernel: coefficient of z1^-i z2^-j in (G1 - G2)/(z1 - z2) is
    # -G_{-(i+j-1)} for i, j >= 1 (leading beta at (0,0)).
    w_gg = np.zeros((n1 + 1, n1 + 1), dtype=np.complex128)
    for i in range(1, n1 + 1):
        for j in range(1, n1 + 1):
            w_gg[i, j] = -big_g.coeff(-(i + j - 1)) / beta
    l_gg = _log2d(w_gg)

    # F-F kernel: coefficient of z1^i z2^j is F_{i+j+1} for i + j >= 1.
    w_ff = np.zeros((n1 + 1, n1 + 1), dtype=np.complex128)
    for i in range(0, n1 + 1):
        for j in range(0, n1 + 1):
            if i + j >= 1:
                w_ff[i, j] = big_f.coeff(i + j + 1) / alpha1
    l_ff = _log2d(w_ff)

    # G-F kernel: (G(z1) - F(z2))/z1 = beta (1 + W) with
    # W[i, 0] = G_{-(i-1)}/beta (i >= 1) and W[1, j] -= F_j/beta (j >= 1).
    w_gf = np.zeros((n1 + 1, n1 + 1), dtype=np.complex128)
    for i in range(1, n1 + 1):
        w_gf[i, 0] = big_g.coeff(-(i - 1)) / beta
    for j in range(1, n1 + 1):
        w_gf[1, j] -= big_f.coeff(j) / beta
    l_gf = _log2d(w_gf)

    # univariate f-side 0-row: log(F(z)/z) = log(alpha1) + log(1 + u_F)
    _, _, u_big_f = S.split_normalize(big_f)
    log_f_row = S.log1p(u_big_f, depth=n1 + 2)

    b: dict = {(0, 0): b00}
    for m in range(1, n_max + 1):
        b[(m, 0)] = -l_gf[m, 0]
        b[(0, m)] = -l_gf[m, 0]
        val = -log_f_row.coeff(m)
        b[(0, -m)] = val
        b[(-m, 0)] = val
        for n in range(1, n_max + 1):
            b[(m, n)] = -l_gg[m, n]
            b[(-m, -n)] = -l_ff[m, n]
            b[(m, -n)] = -l_gf[m, n]
            b[(-n, m)] = -l_gf[m, n]

    defect = _symmetry_defect(b, n_max)
    return GrunskyTable(n_max, b, b00, defect)


def table_difference(t1: GrunskyTable, t2: GrunskyTable) -> float:
    """Largest elementwise difference over the common index range."""
    n = min(t1.order, t2.order)
    out = 0.0
    for m in range(-n, n + 1):
        for k in range(-n, n + 1):
            out = max(out, abs(t1.entry(m, k) - t2.entry(m, k)))
    return out


# ---------------------------------------------------------------------------
# expansion identities (checks)


def faber_expansion_defect(pair: ConformalPair, table: GrunskyTable) -> float:
    """Residual of the four basis-expansion identities of the polynomials.

    For n = 1..order, with sums over m = 1..order:

      P_n  = g^n + n sum_m b(n, m)  g^-m      (checked at exponents >= -order)
      P_n  = n b(n,0) + n sum_m b(n, -m) f^m  (checked at exponents <= order)
      P_-n = f^-n + n sum_m b(-n,-m) f^m      (checked at exponents <= order)
      P_-n = -n b(-n,0) + n sum_m b(-n, m) g^-m  (checked at exponents >= -order)

    The exponent restriction accounts for the truncation of the m-sums:
    beyond it the residual is dominated by absent m > order terms.  The
    P_n are the ones the table carries, so it must come from
    :func:`grunsky_table`.
    """
    n_max = table.order
    depth, cl_lo, cl_hi = _chain_window(pair, n_max)
    g, f = pair.g, pair.f

    g_inv = S.int_pow(g, -1, depth=depth)
    g_negs = [g_inv]
    for _ in range(1, n_max + 1):
        g_negs.append(S.clip(S.mul(g_negs[-1], g_inv), cl_lo, cl_hi))
    f_pows = [f]
    for _ in range(1, n_max + 1):
        f_pows.append(S.clip(S.mul(f_pows[-1], f), cl_lo, cl_hi))
    f_inv = S.int_pow(f, -1, depth=depth)
    f_negs = [f_inv]
    for _ in range(1, n_max + 1):
        f_negs.append(S.clip(S.mul(f_negs[-1], f_inv), cl_lo, cl_hi))

    defect = 0.0
    g_pow = S.constant(1.0, AT_INFINITY)
    for n in range(1, n_max + 1):
        g_pow = S.clip(S.mul(g_pow, g), cl_lo, cl_hi)
        pn, pm = table.faber[n], table.faber[-n]

        resid_a = S.sub(pn, g_pow)
        resid_d = S.add(pm, S.constant(n * table.entry(-n, 0)))
        for m in range(1, n_max + 1):
            resid_a = S.sub(resid_a, S.scale(g_negs[m - 1], n * table.entry(n, m)))
            resid_d = S.sub(resid_d, S.scale(g_negs[m - 1], n * table.entry(-n, m)))
        defect = max(defect, S.clip(resid_a, -n_max, cl_hi).max_abs_reliable())
        defect = max(defect, S.clip(resid_d, -n_max, cl_hi).max_abs_reliable())

        resid_b = S.sub(pn, S.constant(n * table.entry(n, 0)))
        resid_c = S.sub(pm, f_negs[n - 1])
        for m in range(1, n_max + 1):
            resid_b = S.sub(resid_b, S.scale(f_pows[m - 1], n * table.entry(n, -m)))
            resid_c = S.sub(resid_c, S.scale(f_pows[m - 1], n * table.entry(-n, -m)))
        defect = max(defect, S.clip(resid_b, cl_lo, n_max).max_abs_reliable())
        defect = max(defect, S.clip(resid_c, cl_lo, n_max).max_abs_reliable())
    return defect
