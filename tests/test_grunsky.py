"""Tests for Faber polynomials and the Grunsky coefficient table.

Hand-derived oracles used below (one-line derivations):

* identity pair: log((z - zeta)/z) = -sum_n zeta^n z^-n / n gives
  b(n, -n) = 1/n and every other entry 0.
* g the inverse of  z + 0.1/z, f = w:  G(z1) - G(z2) = (z1 - z2)(1 - 0.1/(z1 z2)),
  so log-kernel = log(1 - 0.1/(z1 z2)) = -0.1/(z1 z2) - 0.005/(z1 z2)^2 - ...,
  i.e. b(1,1) = 0.1, b(2,2) = 0.005, off-diagonal 0.  Also g^2 = w^2 - 0.2 + ...,
  so P_2 = w^2 - 0.2 and b(2,0) = -0.1; and with f = w the mixed kernel
  log((G(z1) - z2)/z1) gives b(1,-1) = 1, b(2,-2) = 0.5.
* reflection pair from g = w + 0.1/w: g^2 = w^2 + 0.2 + 0.01 w^-2, so
  P_2 = w^2 + 0.2 and b(2,0) = (g^2)_0 / 2 = 0.1.
"""

import cmath
import itertools

import mpmath
import numpy as np
import pytest

from dtoda import conformal_pair as CP
from dtoda import grunsky as G
from dtoda import plan
from dtoda import series as S
from dtoda.coords import _paired_logs
from dtoda.series import SeriesError


# ---------------------------------------------------------------------------
# faber polynomials


def test_faber_identity_cubic(fix_id):
    p = G.faber(fix_id, 3)
    assert p.coeff(3) == 1.0
    assert all(abs(p.coeff(k)) == 0.0 for k in range(0, 3))


def test_faber_identity_negative(fix_id):
    p = G.faber(fix_id, -2)
    assert p.coeff(-2) == 1.0
    assert all(abs(p.coeff(k)) == 0.0 for k in (-1, 0))


def test_faber_joukowski_square(fix_sig):
    # g = w + 0.1/w: g^2 = w^2 + 0.2 + 0.01 w^-2 -> P_2 = w^2 + 0.2
    p = G.faber(fix_sig, 2)
    assert abs(p.coeff(2) - 1.0) < 1e-15
    assert abs(p.coeff(0) - 0.2) < 1e-15
    assert abs(p.coeff(1)) == 0.0


def test_faber_zero_raises(fix_id):
    # index 0 stands for log w, which has no polynomial part
    with pytest.raises(SeriesError):
        G.faber(fix_id, 0)


def test_faber_index_beyond_order(fix_id):
    with pytest.raises(SeriesError):
        G.faber(fix_id, fix_id.order + 1)


def test_faber_polynomials_do_not_depend_on_the_other_indices():
    # f's chain reads a prefix of f's one reciprocal at a depth set by the
    # batch's largest index: every row is bit-equal to P_n built alone
    pair = CP.random_pair(seed=4, decay=0.3, order=8)
    batch = G.faber_polynomials(pair, [n for n in range(-8, 9) if n])
    for n, p in batch.items():
        alone = G.faber(pair, n)
        assert (p.lo_exp, p.reliable) == (alone.lo_exp, alone.reliable)
        assert np.array_equal(p.coeffs, alone.coeffs), n


# ---------------------------------------------------------------------------
# identity-pair table closed form


def test_identity_table_closed_form(fix_id):
    t = G.grunsky_table(fix_id, 8)
    assert abs(t.b00) < 1e-15
    for n in range(1, 9):
        assert abs(t.entry(n, -n) - 1.0 / n) < 1e-12
        assert abs(t.entry(-n, n) - 1.0 / n) < 1e-12
    for m in range(-8, 9):
        for n in range(-8, 9):
            if (m, n) != (0, 0) and m != -n:
                assert abs(t.entry(m, n)) < 1e-12, (m, n)
    assert t.symmetry_defect < 1e-12


@pytest.mark.parametrize("build", [G.grunsky_table, G.grunsky_via_inverse])
def test_table_array_is_bounded_and_read_only(fix_rand, build):
    t = build(fix_rand, 4)
    assert t.b.shape == (9, 9)
    assert t.entry(-4, 3) == t.b[0, 7] and t.entry(0, 0) == t.b00
    for m, n in ((5, 0), (0, -5), (-5, -5)):
        with pytest.raises(KeyError):
            t.entry(m, n)
    assert not t.b.flags.writeable
    with pytest.raises(ValueError):
        t.b[0, 0] = 1.0


def test_symmetry_defect_and_difference_propagate_nan(fix_rand):
    t = G.grunsky_table(fix_rand, 4)
    b = t.b.copy()
    b[1, 2] = complex("nan")
    broken = G.GrunskyTable(4, b)
    assert np.isnan(broken.symmetry_defect)
    assert np.isnan(G.table_difference(t, broken))


def test_identity_dual_path_identical(fix_id):
    t1 = G.grunsky_table(fix_id, 8)
    t2 = G.grunsky_via_inverse(fix_id, 8)
    assert G.table_difference(t1, t2) < 1e-12


# ---------------------------------------------------------------------------
# Joukowski-inverse pair: kernel closed form


def test_joukowski_inverse_diagonal(jouk_pair):
    t = G.grunsky_table(jouk_pair, 6)
    assert abs(t.entry(1, 1) - 0.1) < 1e-10
    assert abs(t.entry(2, 2) - 0.005) < 1e-10
    for m in range(1, 7):
        for n in range(1, 7):
            if m != n:
                assert abs(t.entry(m, n)) < 1e-10, (m, n)


def test_joukowski_inverse_hand_oracles(jouk_pair):
    t = G.grunsky_table(jouk_pair, 6)
    assert abs(t.entry(2, 0) + 0.1) < 1e-10          # (g^2)_0 = -0.2
    assert abs(t.entry(1, -1) - 1.0) < 1e-10
    assert abs(t.entry(2, -2) - 0.5) < 1e-10
    p2 = G.faber(jouk_pair, 2)
    assert abs(p2.coeff(0) + 0.2) < 1e-10


def test_joukowski_inverse_via_inverse_path(jouk_pair):
    t = G.grunsky_via_inverse(jouk_pair, 6)
    assert abs(t.entry(1, 1) - 0.1) < 1e-10
    assert abs(t.entry(2, 2) - 0.005) < 1e-10


# ---------------------------------------------------------------------------
# random pair: symmetry, dual path, expansions, b00


def test_faber_polynomials_are_the_ones_the_table_pairs(fix_rand):
    # the table reads P_n off the rows of the powers it pairs, cut to [-16, 16];
    # faber reads shallower prefixes of the same two chains, so they agree bit
    # for bit; both are near the oracle
    rows = {1: G._faber_rows(S.Rows.chain(fix_rand.g, 16, -16, 16), 1),
            -1: G._faber_rows(S.Rows.chain(fix_rand.f, -16, -16, 16, depth=32), -1)}
    ns = [n for n in range(-16, 17) if n]
    fresh = CP.random_pair(seed=7, decay=0.3, order=16)  # chains not yet grown by a table
    polys = G.faber_polynomials(fresh, ns)
    assert sorted(polys) == ns
    for n, p in polys.items():
        assert (p.lo_exp, p.hi_exp, p.flavor, p.reliable) == \
            (min(n, 0), max(n, 0), S.TWO_SIDED, (S.NEG_INF, S.POS_INF))
        paired = rows[np.sign(n)][abs(n) - 1]
        assert (paired.lo_exp, paired.hi_exp) == (p.lo_exp, p.hi_exp)
        assert paired.coeffs.tobytes() == p.coeffs.tobytes(), n
    _assert_faber_near_oracle(fix_rand, polys)


def test_table_builds_no_faber_polynomial_of_its_own(fix_rand, monkeypatch):
    calls = []
    real = G.faber
    monkeypatch.setattr(G, "faber", lambda *args: calls.append(args) or real(*args))
    G.grunsky_table(fix_rand, 16)
    assert calls == []


def test_b_polynomial_reads_the_pair_on_either_table(fix_rand):
    # P_n is the pair's, so only the halved constant depends on the table
    oracle, primary = G.grunsky_via_inverse(fix_rand, 4), G.grunsky_table(fix_rand, 4)
    for n in (1, -3):
        a, b = (G.b_polynomial(fix_rand, t, n) for t in (oracle, primary))
        p = G.faber(fix_rand, n)
        for q in (a, b):
            assert all(q.coeff(k) == p.coeff(k) for k in range(min(n, 0), max(n, 0) + 1) if k)
        assert abs(a.coeff(0) - b.coeff(0)) < 1e-12


def test_random_pair_symmetry(fix_rand):
    t = G.grunsky_table(fix_rand, 16)
    assert t.symmetry_defect <= 1e-10


def test_random_pair_dual_path(fix_rand):
    t1 = G.grunsky_table(fix_rand, 16)
    t2 = G.grunsky_via_inverse(fix_rand, 16)
    assert G.table_difference(t1, t2) <= 1e-10


def test_random_pair_b00_principal_branch(fix_rand):
    t = G.grunsky_table(fix_rand, 4)
    assert abs(t.b00 - (-cmath.log(fix_rand.b))) < 1e-14
    assert abs(t.entry(0, 0) - t.b00) == 0.0


def test_faber_expansion_identities(fix_rand):
    t = G.grunsky_table(fix_rand, 16)
    assert G.faber_expansion_defect(fix_rand, t) <= 1e-10


def _read_mask_per_row(p, lead, basis, window):
    """`G._read_mask` built row by row: each row's own list of every edge it reads."""
    shared = [window] + [r.reliable for r in basis]
    rel = np.array([[q.reliable, t.reliable] + shared for q, t in zip(p, lead)],
                   dtype=np.float64)
    exps = np.arange(window[0], window[1] + 1)
    return (exps >= rel[..., 0].max(axis=1)[:, None]) & (exps <= rel[..., 1].min(axis=1)[:, None])


@pytest.mark.parametrize("name", ["fix_sig", "fix_rand"])
def test_faber_read_mask_matches_the_per_row_edges(name, request, monkeypatch):
    pair, calls, residual = request.getfixturevalue(name), [], G._expansion_residual
    monkeypatch.setattr(G, "_expansion_residual", lambda p, lead, block, basis, window: (
        calls.append((p, lead, basis, window)) or residual(p, lead, block, basis, window)))
    G.faber_expansion_defect(pair, G.grunsky_table(pair, 16))
    assert len(calls) == 4
    for p, lead, basis, window in calls:
        assert any(np.isfinite(r.reliable).any() for r in [*lead, *basis])
        np.testing.assert_array_equal(G._read_mask(p, lead, basis, window),
                                      _read_mask_per_row(p, lead, basis, window))


def test_read_mask_cuts_rows_at_their_own_edges():
    # the fixtures' finite edges lie outside their windows; here each row's cut the window
    def rows(edges):
        return S.Rows.of([S.LaurentSeries(0, [1.0], reliable=e) for e in edges])

    inf = float("inf")
    p, lead = rows([(k - 3, inf) for k in range(8)]), rows([(-inf, 15 - k) for k in range(8)])
    basis = rows([(-inf, 13), (2, inf), (-inf, inf)])
    want = _read_mask_per_row(p, lead, basis, (0, 15))
    assert [(np.flatnonzero(r)[0], np.flatnonzero(r)[-1]) for r in want[[0, 6, 7]]] == [
        (2, 13), (3, 9), (4, 8)]
    np.testing.assert_array_equal(G._read_mask(p, lead, basis, (0, 15)), want)


@pytest.mark.parametrize("m, n", [(3, 5), (-2, 0), (5, -7), (-16, 16)])
def test_faber_expansion_defect_is_nan_on_a_nan_entry(fix_rand, m, n):
    b = G.grunsky_table(fix_rand, 16).b.copy()
    b[m + 16, n + 16] = np.nan
    assert np.isnan(G.faber_expansion_defect(fix_rand, G.GrunskyTable(16, b)))


def test_sig_pair_b20(fix_sig):
    t = G.grunsky_table(fix_sig, 8)
    assert abs(t.entry(2, 0) - 0.1) < 1e-12


# ---------------------------------------------------------------------------
# b-truncation polynomial


def test_b_polynomial_identity(fix_id):
    t = G.grunsky_table(fix_id, 8)
    p = G.b_polynomial(fix_id, t, 2)
    assert p.coeff(2) == 1.0
    assert abs(p.coeff(0)) < 1e-14
    q = G.b_polynomial(fix_id, t, -1)
    assert q.coeff(-1) == 1.0
    assert abs(q.coeff(0)) < 1e-14


def test_b_polynomial_halves_constant(fix_sig):
    t = G.grunsky_table(fix_sig, 8)
    p = G.b_polynomial(fix_sig, t, 2)
    # P_2 = w^2 + 0.2 and b(2,0) = 0.1: constant becomes 0.2 - 0.1 = 0.1
    assert abs(p.coeff(0) - 0.1) < 1e-12


def test_b_polynomial_rejects_zero(fix_id):
    t = G.grunsky_table(fix_id, 4)
    with pytest.raises(SeriesError):
        G.b_polynomial(fix_id, t, 0)


# ---------------------------------------------------------------------------
# bivariate log kernel against the power sum it replaced


def _conv2_reference(a, b, n1, n2):
    """Truncated 2-d convolution on index boxes [0..n1] x [0..n2]: row i of
    ``a`` adds the rows of ``b`` times its upper-triangular Toeplitz matrix,
    cut to the columns from the row's first nonzero on."""
    out = np.zeros((n1 + 1, n2 + 1), dtype=np.complex128)
    ai, aj = a.shape
    lag = np.subtract.outer(np.arange(n2 + 1), np.arange(n2 + 1)).T  # [l, j] = j - l
    inside, lag = (lag >= 0) & (lag < aj), np.clip(lag, 0, aj - 1)
    for i in range(min(ai, n1 + 1)):
        nonzero = np.flatnonzero(a[i][: n2 + 1])
        if not nonzero.size:
            continue
        j0 = nonzero[0]
        toeplitz = np.where(inside, a[i][lag], 0)[: n2 + 1 - j0, j0:]
        blk = b[: n1 + 1 - i, : n2 + 1 - j0]
        out[i : i + blk.shape[0], j0:] += blk @ toeplitz[: blk.shape[1]]
    return out


def _log2d_power_sum(w):
    """log(1 + W) as the alternating power sum of W, truncated to W's box."""
    n1, n2 = w.shape[0] - 1, w.shape[1] - 1
    out = np.zeros_like(w)
    power = w.copy()
    sign = 1.0
    for k in range(1, n1 + n2 + 2):
        out += (sign / k) * power
        power = _conv2_reference(power, w, n1, n2)
        if not np.any(power):
            break
        sign = -sign
    return out


def _decaying(shape, c, seed):
    rng = np.random.default_rng(seed)
    i, j = np.indices(shape)
    w = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    w *= c ** (i + j)
    w[0, 0] = 0.0
    return w


# the last five: n1 = _BAND - 3 .. _BAND + 1, on either side of the near stack's
# depth min(_BAND - 1, n1) and of the first far term (n1 = _BAND + 1)
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 3), (9, 7), (7, 9), (33, 17),
                                   (65, 65), (6, 5), (7, 5), (8, 5), (9, 5), (10, 5)])
def test_log2d_matches_power_sum(shape):
    w = _decaying(shape, 0.3, seed=sum(shape))
    want = _log2d_power_sum(w)
    got = G._log2d(w)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(np.abs(want)), 1e-300)


def test_log2d_carries_nan_past_the_near_band():
    # every row from 1 on: the near-band product spreads it as the far push does
    w = _decaying((33, 33), 0.3, seed=33)
    w[1, 0] = np.nan
    assert np.isnan(G._log2d(w)[1:]).all()


def _log2d_clongdouble(w):
    """log(1 + W) by `_log2d`'s row recurrence, every row sum and product
    taken term by term in np.clongdouble."""
    w = w.astype(np.clongdouble)
    n1, n2 = w.shape[0] - 1, w.shape[1] - 1
    a = w[0].copy()
    a[0] += 1
    inv_a = np.zeros(n2 + 1, dtype=np.clongdouble)
    inv_a[0] = 1 / a[0]
    for m in range(1, n2 + 1):
        inv_a[m] = -np.dot(a[1:m + 1], inv_a[m - 1::-1]) / a[0]

    def mul(x, y):
        return np.convolve(x, y)[: n2 + 1]

    j = np.arange(1, n2 + 1)
    theta = np.zeros_like(w)
    theta[0, 1:] = mul(np.arange(n2 + 1) * w[0], inv_a)[1:]
    for i in range(1, n1 + 1):
        theta[i] = mul(i * w[i] - sum(mul(theta[k], w[i - k]) for k in range(1, i)), inv_a)
    out = theta.copy()
    out[0, 1:] /= j
    out[1:] /= np.arange(1, n1 + 1)[:, None]
    return out


# max |L - reference| of the G-F kernel below with the recurrence summed in one
# einsum per row (grunsky.py at commit b31f15a; x86-64, numpy 2.4.6, OpenBLAS)
_EINSUM_ERROR_GF64 = 1.110e-14


def _gf_kernel(a, b):
    """The dense W = A(z1) + z1 B(z2) that `_log_gf` reads as (a, b)."""
    w = np.zeros((len(a), len(b)), dtype=np.complex128)
    w[1:, 0], w[1, 1:] = a[1:], b[1:]
    return w


def test_log2d_rounding_on_a_growing_kernel(poly64, monkeypatch):
    """The order-64 G-F kernel of `poly64`, whose log grows to about 11 in the
    far rows (its G-G and F-F kernels decay, and their largest error sits in
    rows the far part never touches), solved by `_log_gf` within 2x the
    single-einsum error."""
    log_gf, kernels = G._log_gf, []
    monkeypatch.setattr(G, "_log_gf", lambda a, b: kernels.append((a, b)) or log_gf(a, b))
    G.grunsky_via_inverse(poly64, 64)
    (a, b), = kernels
    want = _log2d_clongdouble(_gf_kernel(a, b))
    assert want.shape == (65, 65) and np.max(np.abs(want[G._BAND + 1:])) > 10
    assert np.max(np.abs(log_gf(a, b) - want)) <= 2 * _EINSUM_ERROR_GF64


def test_log_gf_matches_log2d_of_the_dense_kernel():
    rng = np.random.default_rng(30)
    for size in range(2, 66):  # both sides of _BAND and of the near stack's depth
        a, b = (np.append(0, 0.5 * (rng.uniform(-1, 1, size - 1)
                                    + 1j * rng.uniform(-1, 1, size - 1))) for _ in range(2))
        want = G._log2d(_gf_kernel(a, b))
        got = G._log_gf(a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), size


def test_log_gf_carries_a_nan_of_b_to_every_later_row():
    rng = np.random.default_rng(5)
    a, b = (np.append(0, 0.5 * (rng.uniform(-1, 1, 32) + 1j * rng.uniform(-1, 1, 32)))
            for _ in range(2))
    b[7] = np.nan
    out = G._log_gf(a, b)
    assert not np.isnan(out[0]).any() and np.isnan(out[1:]).any(axis=1).all()


def test_log2d_rejects_nonzero_constant():
    w = _decaying((3, 3), 0.3, seed=1)
    w[0, 0] = 1e-3
    with pytest.raises(SeriesError):
        G._log2d(w)


# ---------------------------------------------------------------------------
# windowed Faber powers at order 64


@pytest.fixture(scope="module")
def poly64():
    """Polynomial pair near the edge of the benchmark's coefficient box."""
    b = 1.03 + 0.02j
    g = {1: b, 0: 0.1 - 0.05j, -1: 0.05 + 0.04j, -2: -0.03 + 0.02j}
    f = {1: 1 / b, 2: 0.05 - 0.03j, 3: 0.03 + 0.02j}
    return CP.from_coefficients(g, f, 64)


def _full_width_faber(pair, n):
    """Read-out of P_n from the unclipped power, as faber did before windowing."""
    if n >= 1:
        p = S.int_pow(pair.g, n)
        return {k: p.coeff(k) for k in range(0, n + 1)}
    p = S.int_pow(pair.f, n, depth=2 * -n + 8)
    return {k: p.reliable_coeff(k) for k in range(n, 1)}


def test_faber_matches_full_width_power(poly64):
    for n in [k for k in range(-64, 65) if k]:
        got = G.faber(poly64, n)
        want = _full_width_faber(poly64, n)
        assert (got.lo_exp, got.hi_exp) == (min(want), max(want)), n
        scale = max(abs(c) for c in want.values())
        assert max(abs(got.coeff(k) - want[k]) for k in want) <= 1e-13 * scale, n


def _mp_binomial(u, p, upto):
    """Coefficients 0..upto of (1 + sum_k u[k] x^k)**p, from (1 + u) s' = p u' s.

    ``u`` maps exponents k >= 1 to mpmath numbers; zero terms may be left out.
    """
    s = [mpmath.mpc(1)]
    for j in range(1, upto + 1):
        s.append(sum(((p + 1) * k - j) * c * s[j - k] for k, c in u.items() if k <= j) / j)
    return s


def _mp_normalized(series, sign):
    """Leading coefficient c and u with series = c w (1 + u(w**sign)), as mpmath numbers."""
    c = mpmath.mpc(series.coeff(1))
    u = {k: mpmath.mpc(series.coeff(1 + sign * k)) / c
         for k in range(1, series.width) if series.coeff(1 + sign * k) != 0}
    return c, u


def _mp_faber(pair, n):
    """P_n at 50 digits: exact powers of the stored (polynomial) maps.

    With g = b w (1 + v(1/w)), [w^k] g^n = b^n [x^(n-k)] (1 + v)^n; with
    f = a1 w (1 + u(w)), [w^k] f^n = a1^n [w^(k-n)] (1 + u)^n.
    """
    with mpmath.workdps(50):
        if n >= 1:
            b, v = _mp_normalized(pair.g, -1)
            s = _mp_binomial(v, n, n)
            return {k: complex(s[n - k] * b ** n) for k in range(0, n + 1)}
        a1, u = _mp_normalized(pair.f, 1)
        s = _mp_binomial(u, n, -n)
        return {k: complex(s[k - n] * a1 ** n) for k in range(n, 1)}


def _assert_faber_near_oracle(pair, polys):
    """Each P_n of ``polys`` is no farther from the 50-digit oracle than 1.1
    times the repeated-squaring read-out's error, up to two ulps of its largest
    coefficient (errors of a few ulps differ between any two product orders)."""
    eps = np.finfo(np.float64).eps
    for n, p in polys.items():
        want = _mp_faber(pair, n)
        ref = _full_width_faber(pair, n)
        err = max(abs(p.coeff(k) - want[k]) for k in want)
        err_ref = max(abs(ref[k] - want[k]) for k in want)
        scale = max(abs(c) for c in want.values())
        assert err <= 1.1 * err_ref + 2 * eps * scale, (n, err, err_ref)


def test_order64_table_faber_near_oracle(poly64):
    _assert_faber_near_oracle(poly64, G.faber_polynomials(poly64, [n for n in range(-64, 65) if n]))


@pytest.mark.parametrize("n", [64, -64])
def test_faber_no_farther_from_mpmath_than_full_width(poly64, n):
    want = _mp_faber(poly64, n)
    got = G.faber(poly64, n)
    old = _full_width_faber(poly64, n)
    err_new = max(abs(got.coeff(k) - want[k]) for k in want)
    err_old = max(abs(old[k] - want[k]) for k in want)
    assert err_new <= 1.1 * err_old + 1e-300


def test_order64_dual_path(poly64):
    t1 = G.grunsky_table(poly64, 64)
    t2 = G.grunsky_via_inverse(poly64, 64)
    assert G.table_difference(t1, t2) <= 1e-10


# ---------------------------------------------------------------------------
# the oracle path's inversions against Lagrange inversion at 40 digits


def _mp_inverse_g(g, depth):
    """Coefficients of G = g^-1 on [1 - depth, 1], at 40 digits.

    Lagrange inversion: [z^-n] G = -(1/n) res g^n for n >= 1, where
    res g^n = b^n [x^(n+1)] (1 + v)^n with g = b w (1 + v(1/w)).
    """
    with mpmath.workdps(40):
        b, v = _mp_normalized(g, -1)
        big_g = {1: 1 / b, 0: -mpmath.mpc(g.coeff(0)) / b}
        for n in range(1, depth):
            big_g[-n] = -b ** n * _mp_binomial(v, n, n + 1)[n + 1] / n
        return {k: complex(c) for k, c in big_g.items()}


def _mp_inverse_f(f, depth):
    """Coefficients of F = f^-1 on [1, 1 + depth], at 40 digits:
    [z^n] F = (1/n) [w^(n-1)] (w/f)^n = (1/n) a1^-n [w^(n-1)] (1 + u)^-n."""
    with mpmath.workdps(40):
        a1, u = _mp_normalized(f, 1)
        return {n: complex(_mp_binomial(u, -n, n - 1)[n - 1] / (n * a1 ** n))
                for n in range(1, depth + 2)}


@pytest.fixture(scope="module")
def large_b64():
    """A tables-poly64 pair (seed 37, config 11) from the large-|b| quarter
    of the workload's box, where grunsky_dual_path fails its 1e-10."""
    g = {1: 1.073457137249394 + 0.0364784316806856j,
         0: 0.03389494505784732 + 0.03162592845533299j,
         -1: -0.03360696505055104 - 0.038818984224619484j,
         -2: -0.007704291080278685 - 0.016488124734133393j}
    f = {1: 0.9304950404093493 - 0.03162026557274949j,
         2: 0.016769710989517753 + 0.03719470885604674j,
         3: 0.012480104384465444 + 0.009740324953492925j}
    return CP.from_coefficients(g, f, 64)


def test_oracle_inversions_match_lagrange_inversion(poly64, large_b64, fix_sig):
    """`invert_function` at the depth `grunsky_via_inverse` uses at order 64
    (2 * 64, the last coefficient its kernels read), and at the Green
    kernel's depths (its order) on the sigma fixture's g."""
    cases = []
    for pair in (poly64, large_b64):
        cases += [(pair.g, 2 * 64, _mp_inverse_g), (pair.f, 2 * 64, _mp_inverse_f)]
    for order in (plan.probe_order(fix_sig.order), fix_sig.order):
        cases.append((fix_sig.g, order, _mp_inverse_g))
    for a, depth, oracle in cases:
        got, want = S.invert_function(a, depth), oracle(a, depth)
        assert (got.lo_exp, got.hi_exp) == (min(want), max(want))
        scale = max(abs(c) for c in want.values())
        assert max(abs(got.coeff(k) - c) for k, c in want.items()) <= 1e-14 * scale


def _mp_power(pair, n, upto):
    """{k: [w^k] g^n}, k = n - upto..n, for n >= 0, or {k: [w^k] f^n},
    k = n..n + upto, for n < 0: the exact powers of the stored maps (`_mp_faber`)."""
    if n >= 0:
        b, v = _mp_normalized(pair.g, -1)
        return {n - i: b ** n * c for i, c in enumerate(_mp_binomial(v, n, upto))}
    a1, u = _mp_normalized(pair.f, 1)
    return {n + i: a1 ** n * c for i, c in enumerate(_mp_binomial(u, n, upto))}


def _mp_times_derivative(power, series):
    """power * series' for a {k: coefficient} map and a stored series."""
    out = {}
    for d in range(series.lo_exp, series.hi_exp + 1):
        c = d * mpmath.mpc(series.coeff(d))
        for k, p in power.items() if c else ():
            out[k + d - 1] = out.get(k + d - 1, 0) + c * p
    return out


def test_table_is_near_its_grunsky_residues_at_50_digits(large_b64):
    """Every quadrant of the order-32 table against the residues that define
    it, n b(+-n, m) = res(P_+-n g^(m-1) g') and n b(+-n, -m) =
    res(P_+-n f^(-m-1) f') for n, m = 1..32, of the exact polynomial maps at
    50 digits: each entry within 4 eps of its quadrant's largest (the (-,+)
    quadrant reads 6.2e-15 of a bound 1.7e-14; at order 64, 1.46e-11 of 2.9e-11)."""
    n_max, pair = 32, large_b64
    table = G.grunsky_table(pair, n_max)
    with mpmath.workdps(50):
        g_pow = [_mp_power(pair, k, k + n_max + 1) for k in range(n_max + 1)]
        f_pow = [_mp_power(pair, -k, k + n_max) for k in range(1, n_max + 2)]
        rows = {1: [{k: c for k, c in g_pow[n].items() if k >= 0} for n in range(1, n_max + 1)],
                -1: [{k: c for k, c in f_pow[n - 1].items() if k <= 0}
                     for n in range(1, n_max + 1)]}
        weights = {1: [_mp_times_derivative(g_pow[m - 1], pair.g) for m in range(1, n_max + 1)],
                   -1: [_mp_times_derivative(f_pow[m], pair.f) for m in range(1, n_max + 1)]}
        idx, eps = np.arange(1, n_max + 1), np.finfo(np.float64).eps
        for (n_sign, p_rows), (m_sign, w_rows) in itertools.product(rows.items(), weights.items()):
            want = np.array([[complex(mpmath.fdot(
                [(c, w[-1 - k]) for k, c in p.items() if -1 - k in w]) / n) for w in w_rows]
                for n, p in enumerate(p_rows, 1)])
            got = table.b[np.ix_(n_max + n_sign * idx, n_max + m_sign * idx)]
            err, bound = np.max(np.abs(got - want)), 4 * eps * np.max(np.abs(want))
            assert err <= bound, (n_sign, m_sign, err, bound)


# ---------------------------------------------------------------------------
# the list-of-series path: the reference the block readers must equal bit for bit


def powers(a, n, depth=None):
    """[a, ..., a**n], or [a**-1, ..., a**n] for n < 0: row k is `int_pow`'s a**+-k."""
    return [S.int_pow(a, k if n > 0 else -k, depth) for k in range(1, abs(n) + 1)]


def _ref_clipped_powers(base, n, window):
    """`series.int_pow` rows of ``base`` exact on ``window``, each clipped to it."""
    j = S.split_normalize(base)[1]
    leads = (j if n > 0 else -j, j * n)
    depth = window[1] - min(leads) if base.flavor == S.AT_ZERO else max(leads) - window[0]
    return [S.clip(r, *window) for r in powers(base, n, max(depth, 0))]


def _ref_polynomial_part(power, n):
    """P_n off ``power`` = g**n or f**n, reliable at both ends of [0, n]."""
    lo, hi = sorted((0, n))
    for k in (lo, hi):
        power.reliable_coeff(k)
    return S.LaurentSeries(lo, S.dense(power, lo, hi))


def _ref_dense_rows(rows, lo, hi):
    out = np.zeros((len(rows), hi - lo + 1), dtype=np.complex128)
    for dst, a in zip(out, rows):
        dst[:] = S.dense(a, lo, hi)
    return out


def _ref_residue_matrix(rows_a, rows_b):
    """res(a_i * b_j) of healthy rows: the rows of a on the union of their
    stored windows against those of b on that window reflected."""
    lo, hi = min(a.lo_exp for a in rows_a), max(a.hi_exp for a in rows_a)
    right = np.zeros((len(rows_b), hi - lo + 1), dtype=np.complex128)
    right[:, ::-1] = _ref_dense_rows(rows_b, -1 - hi, -1 - lo)
    return _ref_dense_rows(rows_a, lo, hi) @ right.T


def _ref_table(pair, order):
    """`grunsky_table` with every row a series of its own: the derivative of
    each P_n and log paired with g^1..g^N and f^-1..f^-N cut to [-N, N]."""
    n_max = order
    window = (-n_max, n_max)
    g_pow = _ref_clipped_powers(pair.g, n_max, window)
    f_neg = _ref_clipped_powers(pair.f, -n_max, window)
    neg = [_ref_polynomial_part(f_neg[n - 1], -n) for n in range(n_max, 0, -1)]
    pos = [_ref_polynomial_part(g_pow[n - 1], n) for n in range(1, n_max + 1)]
    log_g, log_f = _paired_logs(pair, n_max)
    k = np.arange(-n_max, n_max + 1)
    div = np.maximum(np.abs(k), 1)[:, None] * np.arange(1, n_max + 1)
    b = np.empty((2 * n_max + 1, 2 * n_max + 1), dtype=np.complex128)
    # each part divided on its own: one rounding
    res_g = -_ref_residue_matrix([S.derivative(a) for a in neg + [log_g] + pos], g_pow)
    res_f = _ref_residue_matrix([S.derivative(a) for a in neg + [log_f] + pos], f_neg)
    consts = np.array([p.coeff(0) for p in neg + pos])
    for part in ("real", "imag"):
        table = getattr(b, part)
        table[:, n_max + 1:] = getattr(res_g, part) / div
        table[:, n_max - 1::-1] = getattr(res_f, part) / div
        table[k != 0, n_max] = getattr(consts, part) / k[k != 0]
    b[n_max, n_max] = -cmath.log(pair.b)
    return b


def _ref_defect(pair, table):
    """`faber_expansion_defect` on rows that are series, each clipped to [-N, N]."""
    n_max = table.order
    window = (-n_max, n_max)
    g_pos, g_neg, f_pos, f_neg = (_ref_clipped_powers(s, n, window) for s, n in (
        (pair.g, n_max), (pair.g, -n_max), (pair.f, n_max), (pair.f, -n_max)))
    ns = range(1, n_max + 1)
    up, down = powers(pair.g, n_max, n_max), powers(pair.f, -n_max, n_max)
    p_pos = [_ref_polynomial_part(up[n - 1], n) for n in ns]
    p_neg = [_ref_polynomial_part(down[n - 1], -n) for n in ns]
    const_pos = [S.constant(n * table.entry(n, 0)) for n in ns]
    const_neg = [S.constant(-n * table.entry(-n, 0)) for n in ns]
    idx = np.arange(1, n_max + 1)

    def residual(p, lead, n_sign, m_sign, basis, window):
        lo, hi = window
        block = table.b[np.ix_(n_max + n_sign * idx, n_max + m_sign * idx)]
        resid = (_ref_dense_rows(p, lo, hi) - _ref_dense_rows(lead, lo, hi)
                 - (idx[:, None] * block) @ _ref_dense_rows(basis, lo, hi))
        return float(np.max(np.abs(resid), where=_read_mask_per_row(p, lead, basis, window),
                            initial=0.0))

    return float(np.max([
        residual(p_pos, g_pos, 1, 1, g_neg, window),
        residual(p_pos, const_pos, 1, -1, f_pos, window),
        residual(p_neg, f_neg, -1, -1, f_pos, window),
        residual(p_neg, const_neg, -1, 1, g_neg, window),
    ]))


def _reference_pairs():
    """(label, pair, table orders): the fixtures, tables-poly64-style pairs at
    16, 32 and 64, and the reflection pair of w + 0.1/w at 16 and 64."""
    from dtoda.cli import load_config
    from pathlib import Path
    configs = Path(__file__).resolve().parents[1] / "configs"
    for name in ("identity", "random", "sigma"):
        pair = load_config(str(configs / f"fixture_{name}.json")).build_pair()
        yield name, pair, sorted({pair.order, plan.probe_order(pair.order),
                                  plan.gradient_order(pair.order)})
    boxes = [({1: 1.03 + 0.02j, 0: 0.1 - 0.05j, -1: 0.05 + 0.04j, -2: -0.03 + 0.02j},
              {1: 1 / (1.03 + 0.02j), 2: 0.05 - 0.03j, 3: 0.03 + 0.02j}),
             ({1: 1.073457137249394 + 0.0364784316806856j,
               0: 0.03389494505784732 + 0.03162592845533299j,
               -1: -0.03360696505055104 - 0.038818984224619484j,
               -2: -0.007704291080278685 - 0.016488124734133393j},
              {1: 0.9304950404093493 - 0.03162026557274949j,
               2: 0.016769710989517753 + 0.03719470885604674j,
               3: 0.012480104384465444 + 0.009740324953492925j})]
    for i, (g, f) in enumerate(boxes):
        for order in (16, 32, 64):
            yield f"poly{i}@{order}", CP.from_coefficients(g, f, order), [4, 8, order]
    g = S.LaurentSeries.from_pairs({1: 1.0, -1: 0.1}, S.AT_INFINITY)
    for order in (16, 64):
        yield f"sigma@{order}", CP.sigma_conjugate(g, order), [4, 8, order]


@pytest.mark.parametrize("label,pair,orders", list(_reference_pairs()),
                         ids=[label for label, _, _ in _reference_pairs()])
def test_block_readers_equal_the_list_of_series_path(label, pair, orders):
    """The table and the expansion defect read chain rows as blocks, each as
    deep as it reads them; the list-of-series path, each row clipped to
    [-N, N] at that window's depth, gives the same bits."""
    for order in orders:
        table = G.grunsky_table(pair, order)
        assert np.array_equal(table.b, _ref_table(pair, order)), (label, order)
        assert G.faber_expansion_defect(pair, table) == _ref_defect(pair, table), (label, order)
