"""Faber polynomials and the four-quadrant Grunsky coefficient table.

For a pair (g, f) the Faber polynomial of index n is the polynomial part
of a power of the map: for n >= 1 the nonnegative-exponent truncation of
g(w)**n, for n <= -1 the nonpositive-exponent truncation of f(w)**n, and
index 0 stands symbolically for log w.  :func:`faber_polynomials` returns
P_n as exact series, :func:`faber` one; index 0 has no series and raises.

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
  w-parametrization (no functional inversion).  With P_n the Faber
  polynomial, the Grunsky residues n b(n, m) = res(P_n g^{m-1} g') and
  n b(n, -m) = res(P_n f^{-m-1} f') (Pommerenke 1975, ch. 3) are
  integrated by parts, res(A (B^m)') = -res(A' B^m), so each pairs a
  derivative with a power of the map itself: for n, m >= 1

      n m b(n, m)  = -res(P_n' g^m),       n m b(n, -m)  = res(P_n' f^-m),
      n m b(-n, m) = -res(P_-n' g^m),      n m b(-n, -m) = res(P_-n' f^-m),
      m b(0, m)    = -res(log(g/w)' g^m),  m b(0, -m)    = res(log(f/w)' f^-m),
      n b(n, 0)    = P_n[0],              -n b(-n, 0)    = P_-n[0].

  Column 0 pairs P_n with f^-1 f' = 1/w + (log(f/w))' and P_-n with
  g^-1 g' = 1/w + (log(g/w))'; after the same step, P_n' log(f/w) and
  P_-n' log(g/w) have no w**-1 term, which leaves the constant terms.
  The logs enter only through their derivatives, so their branch
  constants drop out, and b00 = -log b.

* :func:`grunsky_via_inverse` — the oracle path: inverts both maps by
  Lagrange inversion (`series.invert_function`: [z^-n] G = -res(g^n)/n,
  [z^n] F = res(f^-n)/n, down to z^(1-2N) and up to z^(2N+1), the last
  coefficients a kernel reads) and expands the kernel logarithms
  formally as truncated bivariate power series; no residue pairing is
  involved.  L = log(1+W) is solved row by row in z1 from
  theta L * (1 + W) = theta W, theta = z1 d/dz1: a relaxed product with
  two BLAS products per row (:func:`_log2d`); the G-F kernel
  W = A(z1) + z1 B(z2) takes one product and one convolution (:func:`_log_gf`).

Every power of g and f here is a row of the one chain per sign that the
germ keeps, read as a block (`series.Rows.chain`) as deep as it is read.
The table, :func:`faber_expansion_defect` and :func:`faber_polynomials`
(which :func:`b_polynomial` reads) slice P_n and P_-n off the blocks of
g^n and f^-n, so every P_n is the table's bit for bit, and the oracle's
inversions read the same two chains.

A table is one dense (2N+1) x (2N+1) array, ``GrunskyTable.b[m + N, n + N]
= b(m, n)``.  On the primary path each half of it is one matrix product
(:func:`series.residue_matrix`): the block derivative (`series.Rows.derivative`,
a scaling by the exponents) of the stacked rows P_-N..P_-1, log(g/w),
P_1..P_N against the rows g^1..g^N fills the columns m >= 1, the same rows
with log(f/w) against f^-1..f^-N the columns m <= -1, and column 0 is read
off the constant terms.  The oracle path copies its blocks from the three
bivariate logs.  Every reduction over a table is an array expression, so a
NaN entry makes it NaN.

The symmetry b(m, n) = b(n, m) is *not* imposed on the primary path: both
triangles (and the 0-row against the 0-column) are computed independently
and the observed defect is a property of the table.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import series as S
from .conformal_pair import ConformalPair
from .coords import _paired_logs
from .series import (
    AT_ZERO,
    LaurentSeries,
    SeriesError,
)


@dataclass(frozen=True, eq=False)
class GrunskyTable:
    """Dense coefficient table b(m, n) for |m|, |n| <= order.

    ``b`` is one read-only (2N+1) x (2N+1) complex array with
    ``b[m + N, n + N] = b(m, n)``, N = ``order``; :meth:`entry` reads it
    by signed index and raises ``KeyError`` outside the table.
    """

    order: int
    b: np.ndarray

    def __post_init__(self):
        self.b.setflags(write=False)

    @property
    def b00(self) -> complex:
        return complex(self.b[self.order, self.order])

    @property
    def symmetry_defect(self) -> float:
        """max |b(m, n) - b(n, m)|; NaN if any entry is NaN."""
        return float(np.max(np.abs(self.b - self.b.T)))

    def entry(self, m: int, n: int) -> complex:
        m, n = int(m), int(n)
        if max(abs(m), abs(n)) > self.order:
            raise KeyError((m, n))
        return complex(self.b[m + self.order, n + self.order])


def faber_polynomials(pair: ConformalPair, ns) -> dict:
    """{n: P_n}, the polynomial part of g**n (n >= 1) or f**n (n <= -1), for
    every n of ``ns``: rows of g's and f's chains exact on [0, K], K the largest
    |n| of a side, each the same whatever K is.  Index 0 stands for log w, has
    no polynomial part, raises."""
    ns = [int(n) for n in ns]
    for n in ns:
        if abs(n) > pair.order:
            raise SeriesError(f"faber index {n} exceeds pair order {pair.order}")
        if n == 0:
            raise SeriesError("index-0 polynomial is symbolic (log w); no series form")
    top, bottom = max([0] + ns), min([0] + ns)
    up = _faber_rows(S.Rows.chain(pair.g, top, -top, top, depth=top), 1)
    down = _faber_rows(S.Rows.chain(pair.f, bottom, bottom, -bottom, depth=-bottom), -1)
    return {n: up[n - 1] if n > 0 else down[-n - 1] for n in ns}


def _faber_rows(rows: S.Rows, sign: int) -> S.Rows:
    """P_n, n = sign * (1..len(rows)), off ``rows`` = g**n or f**n: row k on
    [0, k] or [-k, 0] (nothing of it lies past k or -k) as an exact
    polynomial, where it must be reliable at both ends (`reliable_coeff`)."""
    ends = np.array([sorted((0, sign * k)) for k in range(1, len(rows) + 1)]).reshape(-1, 2)
    bad = np.argwhere((ends < rows.reliable[:, :1]) | (ends > rows.reliable[:, 1:]))
    if bad.size:
        rows[bad[0][0]].reliable_coeff(int(ends[tuple(bad[0])]))
    block = rows.dense(*sorted((0, sign * len(rows))))
    return S.Rows(int(ends.min(initial=0)), block, ends, np.tile([-np.inf, np.inf], (len(ends), 1)))


def faber(pair: ConformalPair, n: int) -> LaurentSeries:
    """P_n alone: `faber_polynomials` of the one index ``n``."""
    return faber_polynomials(pair, (n,))[int(n)]


def b_polynomial(pair: ConformalPair, table: GrunskyTable, n: int) -> LaurentSeries:
    """The pair's polynomial P_n with its constant term halved by the table.

    P_n - (n/2) b(n,0) for either sign of n: the constant becomes half
    the full power's mean term.  P_n is `faber`'s, so index 0 (whose
    analogue log w callers handle symbolically) raises.
    """
    n = int(n)
    return S.add(faber(pair, n), S.constant(-(n / 2.0) * table.entry(n, 0)))


# ---------------------------------------------------------------------------
# primary path: residue extraction in w


def _quotient(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """z / d for real d, each part rounded once (numpy's complex quotient
    multiplies by the reciprocal of d, which rounds twice)."""
    parts = np.ascontiguousarray(z).view(np.float64)
    return (parts / np.repeat(d, 2, axis=-1)).view(np.complex128)


def grunsky_table(pair: ConformalPair, order: int) -> GrunskyTable:
    """Full table by residue extraction (primary path).

    The derivatives of the rows P_-N..P_-1, log(g/w) or log(f/w),
    P_1..P_N are paired with the powers g^1..g^N and f^-1..f^-N in two
    matrix products, which fill the columns m >= 1 and m <= -1; column 0
    is P_n[0]/n and -P_-n[0]/n.  P_n and P_-n are slices of the blocks of
    those powers, which are cut to [-N, N]: g^k as deep as that window,
    f^-k to depth 2N; the logs are read to depth N.
    """
    n_max = int(order)
    if n_max > pair.order or n_max < 1:
        raise SeriesError(f"table order {n_max} must lie in [1, pair order {pair.order}]")
    g_pos = S.Rows.chain(pair.g, n_max, -n_max, n_max)
    f_neg = S.Rows.chain(pair.f, -n_max, -n_max, n_max, depth=2 * n_max)
    neg = _faber_rows(f_neg, -1)[::-1]
    pos = _faber_rows(g_pos, 1)
    log_g, log_f = _paired_logs(pair, n_max)

    k = np.arange(-n_max, n_max + 1)
    div = np.maximum(np.abs(k), 1)[:, None] * np.arange(1, n_max + 1)  # max(|n|, 1) m
    b = np.empty((2 * n_max + 1, 2 * n_max + 1), dtype=np.complex128)
    b[:, n_max + 1:] = _quotient(-S.residue_matrix(
        S.Rows.of([neg, log_g, pos]).derivative(), g_pos), div)
    b[:, n_max - 1::-1] = _quotient(S.residue_matrix(
        S.Rows.of([neg, log_f, pos]).derivative(), f_neg), div)
    consts = np.concatenate([neg.dense(0, 0), pos.dense(0, 0)])[:, 0]  # P_n[0], n = -N..N, n != 0
    b[k != 0, n_max] = _quotient(consts, k[k != 0])
    b[n_max, n_max] = -cmath.log(pair.b)
    return GrunskyTable(n_max, b)


# ---------------------------------------------------------------------------
# oracle path: functional inversion and formal bivariate log expansion

_BAND = 8  # `_log2d` sums the lags i - k < _BAND of a row in place, pushes the rest


def _log2d(w: np.ndarray) -> np.ndarray:
    """log(1 + W) for a bivariate truncation W with W[0,0] = 0.

    Row i holds the coefficients of z1**i.  With theta = z1 d/dz1,
    theta L * (1 + W) = theta W; row 0 of 1 + W is A = 1 + W[0,:], so

        i L[i] * A = i W[i] - sum_{k=1}^{i-1} k L[k] * W[i-k],

    with * the product truncated in z2: a row times the other laid out as
    an upper-triangular Toeplitz matrix T (a strided view of the padded
    rows).  Row 0 is log(A); row i is its sum times 1/A.  The sum is
    relaxed (van der Hoeven 2002): its near band i - k < `_BAND` is one
    BLAS product, the rows k L[k] laid end to end against one stack of
    T(W[d]), d = min(`_BAND` - 1, n1) down to 1; once k L[k] is solved,
    W[_BAND:] @ T(k L[k]) pushes its far terms into an accumulator, so
    a kernel of at most `_BAND` + 1 rows has no far term.
    """
    n1, n2 = w.shape[0] - 1, w.shape[1] - 1
    if w[0, 0] != 0:
        raise SeriesError("bivariate log needs zero constant term")
    a = S.add(S.constant(1.0, AT_ZERO), LaurentSeries(0, w[0], AT_ZERO))
    out = np.zeros((n1 + 1, n2 + 1), dtype=np.complex128)
    out[0] = S.dense(S.log1p(S.split_normalize(a)[2], depth=n2), 0, n2)  # int_pow's reciprocal
    inv_a = S.dense(S.int_pow(a, -1, depth=n2), 0, n2)
    padded = np.zeros((2, n1 + 1, 2 * n2 + 1), dtype=np.complex128)  # W, theta L
    padded[0, :, n2:] = w
    # toeplitz[0, i][l, j] = W[i, j - l] for j >= l, else 0; [1, i] of theta L
    toeplitz = sliding_window_view(padded, n2 + 1, axis=2)[:, :, ::-1, :]
    theta, far = padded[1, :, n2:], np.zeros_like(out)
    lags = min(_BAND - 1, n1)
    near = np.ascontiguousarray(toeplitz[0, lags:0:-1]).reshape(-1, n2 + 1)
    for i in range(1, n1 + 1):
        d = min(i - 1, lags)  # the row's near lags, d down to 1
        rhs = i * w[i] - theta[i - d:i].reshape(-1) @ near[(lags - d) * (n2 + 1):] - far[i]
        theta[i] = np.convolve(rhs, inv_a)[: n2 + 1]
        out[i] = theta[i] / i
        if i + _BAND <= n1:
            far[i + _BAND:] += w[_BAND:n1 + 1 - i] @ np.ascontiguousarray(toeplitz[1, i])
    return out


def _log_gf(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`_log2d` of W = A(z1) + z1 B(z2), given as a = W[:, 0] and b = z2 B
    (a[0] = b[0] = 0).  Row 0 of W is zero, so 1/A = 1 and `_log2d`'s row i
    is i L[i] = i W[i] - sum_{k<i} a[i-k] k L[k] - (i-1) L[i-1] * b."""
    theta = np.zeros((len(a), len(b)), dtype=np.complex128)  # row i: i L[i]
    theta[1], theta[:, 0] = b, np.arange(len(a)) * a  # i W[i]
    for i in range(2, len(a)):
        theta[i] -= a[i - 1:0:-1] @ theta[1:i]
        theta[i] -= np.convolve(theta[i - 1], b)[:len(b)]
    return theta / np.maximum(np.arange(len(a)), 1)[:, None]


def grunsky_via_inverse(pair: ConformalPair, order: int) -> GrunskyTable:
    """Full table from the inverse maps and formal kernel-log expansions.

    Treats the pair's stored windows as exact map data (true for
    polynomial pairs).  Each inversion reaches the last coefficient a
    kernel reads, z^(1-2N) of G and z^(2N+1) of F.  Each kernel is written
    as c (1 + W), W a bivariate truncation on [0..order] x [0..order],
    and `_log2d` expands its logarithm, `_log_gf` that of the G-F kernel.
    """
    n1 = int(order)
    if n1 > pair.order or n1 < 1:
        raise SeriesError(f"table order {n1} must lie in [1, pair order {pair.order}]")
    big_g = S.invert_function(pair.g, 2 * n1)
    big_f = S.invert_function(pair.f, 2 * n1)
    beta, alpha1 = big_g.coeff(1), big_f.coeff(1)
    sums = np.add.outer(np.arange(n1 + 1), np.arange(n1 + 1))  # i + j
    # G-G kernel: coefficient of z1^-i z2^-j in (G1 - G2)/(z1 - z2) is
    # -G_{-(i+j-1)} for i, j >= 1 (leading beta at (0,0)).  Python complex quotients:
    # numpy's round differently, and at large |b| the oracle turns an ulp into 1e-10.
    g_tail = np.array([-x / beta for x in S.dense(big_g, 1 - 2 * n1, 1)[::-1].tolist()])
    w_gg = np.zeros((n1 + 1, n1 + 1), dtype=np.complex128)
    w_gg[1:, 1:] = g_tail[sums[1:, 1:]]
    l_gg = _log2d(w_gg)

    # F-F kernel: coefficient of z1^i z2^j is F_{i+j+1} for i + j >= 1.
    f_tail = np.array([x / alpha1 for x in S.dense(big_f, 1, 2 * n1 + 1).tolist()])
    f_tail[0] = 0.0
    l_ff = _log2d(f_tail[sums])

    # G-F kernel: (G(z1) - F(z2))/z1 = beta (1 + W) with
    # W[i, 0] = G_{-(i-1)}/beta (i >= 1) and W[1, j] = -F_j/beta (j >= 1).
    l_gf = _log_gf(np.append(0, -g_tail[1:n1 + 1]),
                   np.array([0] + [-x / beta for x in S.dense(big_f, 1, n1).tolist()]))

    # univariate f-side 0-row: log(F(z)/z) = log(alpha1) + log(1 + u_F)
    _, _, u_big_f = S.split_normalize(big_f)
    log_f_row = S.log1p(u_big_f, depth=n1)

    # b(m, n) = b(n, m) for every mixed pair and every 0-row entry: one
    # kernel coefficient fills both triangles.
    b = np.empty((2 * n1 + 1, 2 * n1 + 1), dtype=np.complex128)
    b[n1 + 1:, n1 + 1:] = -l_gg[1:, 1:]
    b[:n1, :n1] = -l_ff[:0:-1, :0:-1]
    b[n1 + 1:, :n1] = -l_gf[1:, :0:-1]
    b[:n1, n1 + 1:] = b[n1 + 1:, :n1].T
    b[n1 + 1:, n1] = b[n1, n1 + 1:] = -l_gf[1:, 0]
    b[:n1, n1] = b[n1, :n1] = -S.dense(log_f_row, 1, n1)[::-1]
    b[n1, n1] = cmath.log(beta)
    return GrunskyTable(n1, b)


def table_difference(t1: GrunskyTable, t2: GrunskyTable) -> float:
    """Largest elementwise difference over the common index range (NaN if any)."""
    n = min(t1.order, t2.order)
    blocks = [t.b[t.order - n:t.order + n + 1, t.order - n:t.order + n + 1]
              for t in (t1, t2)]
    return float(np.max(np.abs(blocks[0] - blocks[1])))


# ---------------------------------------------------------------------------
# expansion identities (checks)


def _read_mask(p, lead, basis, window) -> np.ndarray:
    """[row n, exponent of ``window``]: P_n, lead_n and every basis row reliable."""
    edges = np.stack([p.reliable, lead.reliable])
    r_lo = np.maximum(edges[..., 0].max(axis=0), max(window[0], basis.reliable[:, 0].max()))
    r_hi = np.minimum(edges[..., 1].min(axis=0), min(window[1], basis.reliable[:, 1].min()))
    exps = np.arange(window[0], window[1] + 1)
    return (exps >= r_lo[:, None]) & (exps <= r_hi[:, None])


def _expansion_residual(p, lead, block, basis, window) -> float:
    """max over rows n = 1..N of |P_n - lead_n - n (block @ basis)_n| on ``window``.

    A row is read where all its terms are reliable (`_read_mask`); a NaN
    there makes the result NaN.
    """
    lo, hi = window
    n = np.arange(1, len(p) + 1)[:, None]
    resid = p.dense(lo, hi) - lead.dense(lo, hi) - (n * block) @ basis.dense(lo, hi)
    return float(np.max(np.abs(resid), where=_read_mask(p, lead, basis, window), initial=0.0))


def faber_expansion_defect(pair: ConformalPair, table: GrunskyTable) -> float:
    """Residual of the four basis-expansion identities of the polynomials.

    For n = 1..order, with sums over m = 1..order:

      P_n  = g^n + n sum_m b(n, m)  g^-m      (checked at exponents >= -order)
      P_n  = n b(n,0) + n sum_m b(n, -m) f^m  (checked at exponents <= order)
      P_-n = f^-n + n sum_m b(-n,-m) f^m      (checked at exponents <= order)
      P_-n = -n b(-n,0) + n sum_m b(-n, m) g^-m  (checked at exponents >= -order)

    The exponent restriction accounts for the truncation of the m-sums:
    beyond it the residual is dominated by absent m > order terms.  On
    the other side no row reaches past the window [-N, N] (g^n and P_n end
    at n, f^-n and P_-n at -n), so every identity is read on it.  Each
    identity is one product of a quadrant of the table with a block of
    basis powers, each block exact on its side (depth 2N for g^n and f^-n,
    N - 1 for g^-m and f^m); P_n is sliced off the block of g^n or f^-n.
    """
    n_max = table.order
    window = (-n_max, n_max)
    g_pos, g_neg, f_pos, f_neg = (S.Rows.chain(a, n, *window) for a, n in (
        (pair.g, n_max), (pair.g, -n_max), (pair.f, n_max), (pair.f, -n_max)))
    p_pos, p_neg = _faber_rows(g_pos, 1), _faber_rows(f_neg, -1)
    idx, exact = np.arange(1, n_max + 1), np.tile([-np.inf, np.inf], (n_max, 1))
    const_pos, const_neg = (S.Rows(0, (s * idx * table.b[n_max + s * idx, n_max])[:, None],
                                   np.zeros((n_max, 2), int), exact) for s in (1, -1))

    def block(n_sign: int, m_sign: int) -> np.ndarray:
        """b(n_sign n, m_sign m) for n, m = 1..N."""
        return table.b[np.ix_(n_max + n_sign * idx, n_max + m_sign * idx)]

    return float(np.max([
        _expansion_residual(p_pos, g_pos, block(1, 1), g_neg, window),
        _expansion_residual(p_pos, const_pos, block(1, -1), f_pos, window),
        _expansion_residual(p_neg, f_neg, block(-1, -1), f_pos, window),
        _expansion_residual(p_neg, const_neg, block(-1, 1), g_neg, window),
    ]))
