"""Oracle tests for the windowed Laurent arithmetic.

Every expected value here is either computed by an independent method in
the test itself (brute-force convolution, binomial/geometric/Taylor
closed forms, pointwise numerical evaluation, 40-digit mpmath
recurrences) or is elementary enough to verify by hand in one line.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dtoda import series as S
from dtoda.series import (
    AT_INFINITY,
    AT_ZERO,
    TWO_SIDED,
    CircleZeroError,
    LaurentSeries,
    NonInvertibleError,
    SeriesError,
    WindowUnderflowError,
)


def brute_convolve(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """O(n^2) reference product, written without numpy convolution."""
    lo = a.lo_exp + b.lo_exp
    hi = a.hi_exp + b.hi_exp
    arr = np.zeros(hi - lo + 1, dtype=np.complex128)
    for i in range(a.width):
        for j in range(b.width):
            arr[i + j] += a.coeffs[i] * b.coeffs[j]
    return LaurentSeries(lo, arr)


def series_close(a: LaurentSeries, b: LaurentSeries, tol: float) -> bool:
    return S.max_abs_diff_reliable(a, b) <= tol


# ---------------------------------------------------------------------------
# construction and accessors


def test_coeff_outside_window_is_exact_zero():
    a = LaurentSeries.from_pairs({-2: 3.0, 1: 2.0})
    assert a.coeff(5) == 0.0
    assert a.coeff(-7) == 0.0
    assert isinstance(a.coeff(5), complex)
    assert a.coeff(-2) == 3.0
    assert a.coeff(1) == 2.0


def test_residue_reads_exponent_minus_one():
    a = LaurentSeries.from_pairs({-1: 4.5, 0: 1.0, 2: -2.0})
    assert a.residue() == 4.5


def test_immutability():
    a = S.monomial(0, 1.0)
    with pytest.raises((ValueError, AttributeError)):
        a.coeffs[0] = 5.0


def test_empty_window_rejected():
    with pytest.raises(SeriesError):
        LaurentSeries(0, np.array([], dtype=np.complex128))


def test_reliable_must_be_nonempty():
    with pytest.raises(WindowUnderflowError):
        LaurentSeries(0, np.ones(3), TWO_SIDED, (2, 1))


def test_caller_arrays_are_copied_and_kernel_output_is_not():
    """A writeable array, or a read-only view of one, is copied, so later
    writes by the caller do not reach the series; a read-only array the
    series can own is taken as it is."""
    arr = np.arange(1.0, 5.0) + 0j
    a = LaurentSeries(0, arr)
    view = arr[1:]
    view.setflags(write=False)
    b = LaurentSeries(1, view)
    arr[:] = -7.0
    assert a.coeffs.tolist() == [1, 2, 3, 4]
    assert b.coeffs.tolist() == [2, 3, 4]
    frozen = np.arange(3.0) + 0j
    frozen.setflags(write=False)
    assert LaurentSeries(0, frozen).coeffs is frozen
    assert S.shift(a, 2).coeffs is a.coeffs


def test_kernel_outputs_are_read_only():
    a = LaurentSeries.from_pairs({-1: 2.0, 0: 1.0, 2: 0.5j}, AT_ZERO)
    b = LaurentSeries.from_pairs({0: 1.0, 1: -3.0})
    for out in (S.mul(a, b), S.add(a, b), S.scale(a, 2.0), S.shift(a, 3),
                S.clip(a, 0, 1), S.combine([1.0, 2j], [a, b])):
        assert not out.coeffs.flags.writeable
        with pytest.raises(ValueError):
            out.coeffs[0] = 9.0


def test_cached_lead_equals_a_fresh_argmax():
    """`lead` on the rows of a chain, an all-zero row among them."""
    base = LaurentSeries.from_pairs({-1: 0.3, 0: 1.0, 1: 0.2 - 0.5j}, AT_ZERO)
    rows = S.powers(base, 6, 4) + [LaurentSeries(-3, np.zeros(4))]
    for row in rows:
        mags = np.abs(row.coeffs)
        k = int(np.argmax(mags))
        want = None if mags[k] == 0 else row.lo_exp + k
        assert row.lead == want and row.__dict__["lead"] == want
    assert rows[-1].lead is None


# ---------------------------------------------------------------------------
# multiplication: pinned examples and brute-force oracle


def test_mul_difference_of_squares():
    # (w + w^-1)(w - w^-1) = w^2 - w^-2
    a = LaurentSeries.from_pairs({1: 1.0, -1: 1.0})
    b = LaurentSeries.from_pairs({1: 1.0, -1: -1.0})
    c = S.mul(a, b)
    assert c.coeff(2) == 1.0
    assert c.coeff(0) == 0.0
    assert c.coeff(-2) == -1.0


def test_mul_square_with_cross_term():
    # (w + 0.1 w^-1)^2 = w^2 + 0.2 + 0.01 w^-2
    a = LaurentSeries.from_pairs({1: 1.0, -1: 0.1}, AT_INFINITY)
    c = S.mul(a, a)
    assert abs(c.coeff(2) - 1.0) < 1e-15
    assert abs(c.coeff(0) - 0.2) < 1e-15
    assert abs(c.coeff(-2) - 0.01) < 1e-15


def test_mul_matches_brute_force_convolution():
    rng = np.random.default_rng(11)
    for _ in range(20):
        la = int(rng.integers(-6, 3))
        lb = int(rng.integers(-4, 5))
        wa = int(rng.integers(1, 9))
        wb = int(rng.integers(1, 9))
        a = LaurentSeries(la, rng.normal(size=wa) + 1j * rng.normal(size=wa))
        b = LaurentSeries(lb, rng.normal(size=wb) + 1j * rng.normal(size=wb))
        got = S.mul(a, b)
        want = brute_convolve(a, b)
        assert S.max_abs_diff_reliable(got, want) < 1e-15 * max(1.0, np.max(np.abs(want.coeffs)))


def test_mul_reliability_truncation_edge():
    # exact x truncated: the edge shifts by the exact factor's leading exponent
    a = LaurentSeries.from_pairs({1: 1.0})                            # exact w
    b = LaurentSeries(0, np.ones(4), TWO_SIDED, (float("-inf"), 3))   # truncated above 3
    c = S.mul(a, b)
    assert c.reliable == (float("-inf"), 4)


def test_mul_empty_reliable_overlap_raises():
    a = LaurentSeries(0, np.ones(3), TWO_SIDED, (0, 1))    # lead 0, trusted <= 1
    b = LaurentSeries(0, np.ones(3), TWO_SIDED, (2, 2))    # lead 0, trusted only at 2
    with pytest.raises(WindowUnderflowError, match="window underflow"):
        S.mul(a, b)


# ---------------------------------------------------------------------------
# addition


def test_add_unions_windows_and_intersects_reliability():
    a = LaurentSeries(-1, np.array([1.0, 2.0]), TWO_SIDED, (-1, 0))
    b = LaurentSeries(0, np.array([10.0, 20.0]), TWO_SIDED, (0, 1))
    c = S.add(a, b)
    assert (c.lo_exp, c.hi_exp) == (-1, 1)
    assert c.coeff(0) == 12.0
    assert c.reliable == (0, 0)


def test_add_disjoint_reliability_raises():
    a = LaurentSeries(0, np.ones(2), TWO_SIDED, (0, 0))
    b = LaurentSeries(0, np.ones(4), TWO_SIDED, (2, 3))
    with pytest.raises(WindowUnderflowError):
        S.add(a, b)


# ---------------------------------------------------------------------------
# integer powers


def test_int_pow_positive_matches_repeated_mul():
    for a in (LaurentSeries.from_pairs({1: 1.0, 2: 0.3, 4: -0.2}, AT_ZERO),
              LaurentSeries.from_pairs({1: 1.0, 0: 0.3, -2: -0.2}, AT_INFINITY)):
        direct = a
        for k in range(2, 6):
            direct = S.mul(direct, a)
            viapow = S.int_pow(a, k)
            assert S.max_abs_diff_reliable(direct, viapow) < 1e-13


@pytest.mark.parametrize("side", [0, 1], ids=["at-zero", "at-infinity"])
def test_int_pow_is_the_last_row_of_its_chain(side):
    for k in [*range(-5, 0), *range(1, 6)]:
        for depth in (12, 40) if k < 0 else (None, 12, 40):
            got = S.int_pow(_germ_pair()[side], k, depth)
            assert fields(got) == fields(S.powers(_germ_pair()[side], k, depth)[-1]), (k, depth)


def test_int_pow_of_a_two_sided_series_raises():
    a = LaurentSeries.from_pairs({-1: 0.3, 0: 1.0, 2: -0.2})
    for k in (2, -1):
        with pytest.raises(SeriesError, match="germ flavor"):
            S.int_pow(a, k, depth=8)


def test_int_pow_zero_is_one():
    a = LaurentSeries.from_pairs({1: 2.0}, AT_ZERO)
    c = S.int_pow(a, 0)
    assert c.coeff(0) == 1.0 and c.width == 1


def test_int_pow_negative_monomial():
    # w^-3 exactly
    a = S.monomial(1, 1.0, AT_ZERO)
    c = S.int_pow(a, -3, depth=16)
    assert c.coeff(-3) == 1.0
    assert all(c.coeff(k) == 0.0 for k in range(-2, 5))


def test_int_pow_reciprocal_geometric_oracle():
    # 1/(w - 0.1 w^3) = w^-1 (1 + 0.1 w^2 + 0.01 w^4 + ...)
    a = LaurentSeries.from_pairs({1: 1.0, 3: -0.1}, AT_ZERO)
    c = S.int_pow(a, -1, depth=12)
    for i in range(6):
        assert abs(c.coeff(2 * i - 1) - 0.1**i) < 1e-14
        assert c.coeff(2 * i) == 0.0


def test_int_pow_negative_binomial_oracle():
    # (1 + x)^-2 = sum (-1)^k (k+1) x^k with x = 0.2 w
    a = LaurentSeries.from_pairs({0: 1.0, 1: 0.2}, AT_ZERO)
    c = S.int_pow(a, -2, depth=20)
    for k in range(12):
        want = (-1) ** k * (k + 1) * 0.2**k
        assert abs(c.coeff(k) - want) < 1e-13


def test_int_pow_reciprocal_roundtrip_at_infinity():
    rng = np.random.default_rng(3)
    coefs = {1: 1.0, 0: 0.3}
    for k in range(1, 7):
        coefs[-k] = 0.25**k * complex(rng.normal(), rng.normal())
    a = LaurentSeries.from_pairs(coefs, AT_INFINITY)
    inv = S.int_pow(a, -1, depth=24)
    prod = S.mul(a, inv)
    one = S.constant(1.0, AT_INFINITY)
    assert S.max_abs_diff_reliable(prod, one) < 1e-12


def test_int_pow_zero_leading_raises():
    a = S.zero(AT_ZERO)
    with pytest.raises(NonInvertibleError, match="non-invertible leading term"):
        S.int_pow(a, -1, depth=16)


# ---------------------------------------------------------------------------
# split_normalize


def test_split_examples():
    c, j, u = S.split_normalize(LaurentSeries.from_pairs({1: 1.0, -1: 0.1}, AT_INFINITY))
    assert c == 1.0 and j == 1
    assert u.coeff(-2) == 0.1 and u.coeff(0) == 0.0 and u.coeff(-1) == 0.0

    c, j, u = S.split_normalize(LaurentSeries.from_pairs({3: 2.0}, AT_ZERO))
    assert c == 2.0 and j == 3
    assert float(np.max(np.abs(u.coeffs))) == 0.0

    c, j, u = S.split_normalize(LaurentSeries.from_pairs({1: 0.5, 2: 0.2}, AT_ZERO))
    assert c == 0.5 and j == 1
    assert abs(u.coeff(1) - 0.4) < 1e-16


def test_split_constant_term_exact_zero():
    a = LaurentSeries.from_pairs({1: 0.7, 2: 0.1, 5: -0.3}, AT_ZERO)
    _, _, u = S.split_normalize(a)
    assert u.coeff(0) == 0.0


# ---------------------------------------------------------------------------
# log1p


def test_log1p_pinned_example():
    u = LaurentSeries.from_pairs({-2: 0.1}, AT_INFINITY)
    l = S.log1p(u, depth=10)
    assert abs(l.coeff(-2) - 0.1) < 1e-16
    assert abs(l.coeff(-4) + 0.005) < 1e-16
    assert abs(l.coeff(-6) - 0.1**3 / 3) < 1e-16


def test_log1p_rejects_constant_term():
    u = LaurentSeries.from_pairs({0: 0.1, 1: 0.2}, AT_ZERO)
    with pytest.raises(SeriesError):
        S.log1p(u, depth=16)


def test_log1p_scalar_oracle():
    # evaluate log(1+u(x)) at a small real point and compare numerically
    u = LaurentSeries.from_pairs({1: 0.3, 2: -0.1}, AT_ZERO)
    l = S.log1p(u, depth=40)
    x = 0.05
    want = math.log(1 + 0.3 * x - 0.1 * x * x)
    got = sum((l.coeff(k) * x**k).real for k in range(0, 41))
    assert abs(got - want) < 1e-14


def test_log1p_exp_roundtrip():
    # exp(log(1+u)) == 1+u, with exp summed directly from the log output
    u = LaurentSeries.from_pairs({1: 0.4, 3: 0.2}, AT_ZERO)
    l = S.log1p(u, depth=24)
    acc = S.constant(1.0, AT_ZERO)
    term = S.constant(1.0, AT_ZERO)
    for k in range(1, 30):
        term = S.clip(S.mul(term, l), 0, 24)
        term = S.scale(term, 1.0 / k)
        acc = S.add(acc, term)
    one_plus_u = S.add(S.constant(1.0, AT_ZERO), u)
    diff = max(abs(acc.coeff(k) - one_plus_u.coeff(k)) for k in range(0, 20))
    assert diff < 1e-12


# ---------------------------------------------------------------------------
# derivative / residue


def test_derivative_rule():
    a = LaurentSeries.from_pairs({-2: 1.0, 0: 5.0, 3: 2.0})
    d = S.derivative(a)
    assert d.coeff(-3) == -2.0
    assert d.coeff(-1) == 0.0
    assert d.coeff(2) == 6.0


def test_residue_of_derivative_is_exact_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = int(rng.integers(1, 12))
        lo = int(rng.integers(-6, 3))
        a = LaurentSeries(lo, rng.normal(size=w) + 1j * rng.normal(size=w))
        assert S.derivative(a).residue() == 0.0


# ---------------------------------------------------------------------------
# compositional inverse


def test_invert_geometric_oracle():
    # a(w) = w / (1 - w) = w + w^2 + ... inverts to G(z) = z / (1 + z)
    n = 14
    a = LaurentSeries(1, np.ones(n), AT_ZERO)
    g = S.invert_function(a)
    for k in range(1, n + 1):
        want = (-1) ** (k + 1)
        assert abs(g.coeff(k) - want) < 1e-11


def test_invert_roundtrip_at_zero():
    rng = np.random.default_rng(9)
    coefs = {1: 1.3}
    for k in range(2, 10):
        coefs[k] = 0.3 ** (k - 1) * complex(rng.normal(), rng.normal())
    a = LaurentSeries.from_pairs(coefs, AT_ZERO)
    g = S.invert_function(a)
    # numerically compose a(g(z)) at sample points inside the disk
    for z in [0.05, 0.03 + 0.04j, -0.06j]:
        gz = sum(g.coeff(k) * z**k for k in range(1, g.hi_exp + 1))
        agz = sum(a.coeff(k) * gz**k for k in range(1, a.hi_exp + 1))
        assert abs(agz - z) < 1e-12


def test_invert_roundtrip_at_infinity():
    rng = np.random.default_rng(10)
    coefs = {1: 0.8, 0: 0.2}
    for k in range(1, 9):
        coefs[-k] = 0.3 ** (k + 1) * complex(rng.normal(), rng.normal())
    a = LaurentSeries.from_pairs(coefs, AT_INFINITY)
    g = S.invert_function(a)
    for z in [15.0, 10.0 + 7.0j, -12.0j]:
        gz = sum(g.coeff(k) * z**k for k in range(g.lo_exp, 2))
        agz = sum(a.coeff(k) * gz**k for k in range(a.lo_exp, 2))
        assert abs(agz - z) < 1e-11 * abs(z)


def test_invert_joukowski_no_quadratic_term():
    # g = w + 0.1/w: G(z) = z - 0.1/z - 0.01/z^3 - ... (odd symmetry)
    a = LaurentSeries.from_pairs({1: 1.0, -1: 0.1, -2: 0.0, -3: 0.0,
                                  -4: 0.0, -5: 0.0}, AT_INFINITY)
    g = S.invert_function(a)
    # closed form: G(z) = (z + sqrt(z^2 - 0.4))/2 expanded at infinity
    # G = z - 0.1 z^-1 - 0.01 z^-3 - 0.002 z^-5 ...; even powers vanish
    assert abs(g.coeff(1) - 1.0) < 1e-13
    assert abs(g.coeff(0)) < 1e-13
    assert abs(g.coeff(-1) + 0.1) < 1e-12
    assert abs(g.coeff(-2)) < 1e-12
    assert abs(g.coeff(-3) + 0.01) < 1e-12
    assert abs(g.coeff(-5) + 0.002) < 1e-11


def test_invert_rejects_missing_linear_term():
    a = LaurentSeries.from_pairs({2: 1.0}, AT_ZERO)
    with pytest.raises(NonInvertibleError):
        S.invert_function(a)


def padded_series(s: LaurentSeries, lo: int, hi: int) -> LaurentSeries:
    """Reference: ``s`` read on [lo, hi], zero-padded or truncated."""
    arr = np.zeros(hi - lo + 1, dtype=np.complex128)
    a, bnd = max(lo, s.lo_exp), min(hi, s.hi_exp)
    if a <= bnd:
        arr[a - lo : bnd - lo + 1] = s.coeffs[a - s.lo_exp : bnd - s.lo_exp + 1]
    return LaurentSeries(lo, arr, s.flavor, s.reliable)


@pytest.mark.parametrize("depth", [1, 3, 7, 12, 20])
def test_invert_depth_reads_padded_or_truncated_input(depth):
    # stored width 8 past the linear term: depths 1..7 truncate, 12 and 20 pad
    rng = np.random.default_rng(40 + depth)
    tail = [0.3 ** k * complex(rng.normal(), rng.normal()) for k in range(1, 9)]
    at_zero = LaurentSeries.from_pairs(
        {1: 1.1, **{k + 1: c for k, c in enumerate(tail, 1)}}, AT_ZERO)
    at_inf = LaurentSeries.from_pairs(
        {1: 0.9, 0: 0.2, **{-k: c for k, c in enumerate(tail, 1)}}, AT_INFINITY)
    for a, frame in ((at_zero, (1, 1 + depth)), (at_inf, (1 - depth, 1))):
        got = S.invert_function(a, depth)
        want = S.invert_function(padded_series(a, *frame))
        assert (got.lo_exp, got.flavor, got.reliable) == \
            (want.lo_exp, want.flavor, want.reliable)
        assert np.array_equal(got.coeffs, want.coeffs)


# ---------------------------------------------------------------------------
# circle division


def test_divide_by_monomial_exact():
    one = S.constant(1.0)
    w = S.monomial(1, 1.0)
    [q] = S.divide_on_circle([(one, (-4, 4))], w)
    assert q.coeff(-1) == 1.0
    assert sum(abs(q.coeff(k)) for k in range(-4, 5) if k != -1) == 0.0


def test_divide_geometric_oracle():
    # w^2 / (1 + 0.2 w^-1) = w^2 - 0.2 w + 0.04 - 0.008 w^-1 + ...
    num = S.monomial(2, 1.0)
    den = LaurentSeries.from_pairs({0: 1.0, -1: 0.2}, AT_INFINITY)
    [q] = S.divide_on_circle([(num, (-8, 2))], den)
    for i in range(10):
        assert abs(q.coeff(2 - i) - (-0.2) ** i) < 1e-13


def test_divide_matches_reciprocal_multiplication():
    rng = np.random.default_rng(21)
    den_c = {0: 1.0}
    for k in range(1, 6):
        den_c[k] = 0.25**k * complex(rng.normal(), rng.normal())
    den = LaurentSeries.from_pairs(den_c, AT_ZERO)
    num_c = {k: complex(rng.normal(), rng.normal()) for k in range(-2, 4)}
    num = LaurentSeries.from_pairs(num_c)
    [q] = S.divide_on_circle([(num, (-6, 10))], den)
    alt = S.mul(num, S.int_pow(den, -1, depth=40))
    diff = max(abs(q.coeff(k) - alt.coeff(k)) for k in range(-6, 11))
    assert diff < 1e-12


def test_divide_rows_match_horner_sampling(eval_at_points):
    """Each row of a list input against the same division with both series
    sampled by Horner; the denominator's stored window (81 exponents) is
    wider than the 32 and 64 samples of two rows, so FFT sampling folds it."""
    rng = np.random.default_rng(5)

    def decaying(lo, hi, rate):
        return LaurentSeries.from_pairs(
            {k: rate ** abs(k) * complex(rng.normal(), rng.normal()) for k in range(lo, hi + 1)})

    den = S.add(S.constant(3.0), decaying(-40, 40, 0.5))
    rows = [(decaying(-2, 3, 0.8), (-3, 3)), (decaying(-50, 30, 0.9), (-10, 10)),
            (S.monomial(-1, 1.0), (-6, 2))]
    quotients = S.divide_on_circle(rows, den, samples=16)
    sizes = [32, 128, 64]  # the least powers of two >= 4x the widths 7, 21, 9 (and >= 16)
    for (num, (lo, hi)), q, m in zip(rows, quotients, sizes):
        pts = np.exp(2j * np.pi * np.arange(m) / m)
        spec = np.fft.fft(eval_at_points(num, pts) / eval_at_points(den, pts)) / m
        want = spec[np.mod(np.arange(lo, hi + 1), m)]
        assert (q.lo_exp, q.reliable) == (lo, (lo, hi))
        assert np.max(np.abs(q.coeffs - want)) <= 1e-13 * np.max(np.abs(want))
        # a row divides the same alone as in the batch
        assert np.array_equal(S.divide_on_circle([(num, (lo, hi))], den, samples=16)[0].coeffs,
                              q.coeffs)


def test_divide_vanishing_denominator_raises():
    num = S.constant(1.0)
    den = LaurentSeries.from_pairs({1: 1.0, 0: -1.0})  # w - 1 vanishes at w = 1
    with pytest.raises(CircleZeroError, match="denominator vanishes on circle"):
        S.divide_on_circle([(num, (-3, 3))], den)


# ---------------------------------------------------------------------------
# clip and reliability bookkeeping


def test_clip_installs_edges_only_when_data_dropped():
    a = LaurentSeries.from_pairs({-3: 1.0, 0: 2.0, 4: 3.0})
    c = S.clip(a, -1, 6)        # drops the -3 entry, keeps everything above
    assert c.reliable == (-1, float("inf"))
    c2 = S.clip(a, -5, 6)       # drops nothing
    assert c2.reliable == (float("-inf"), float("inf"))


def test_clip_to_empty_survivor_keeps_claims():
    a = LaurentSeries.from_pairs({2: 1.0})
    c = S.clip(a, -5, 0)
    assert float(np.max(np.abs(c.coeffs))) == 0.0
    assert c.reliable == (float("-inf"), 0)
    assert c.coeff(-3) == 0.0


def test_dense_frames_around_the_stored_window():
    a = LaurentSeries.from_pairs({2: 1.0, 3: 2.0, 5: 3.0})
    assert np.array_equal(S.dense(a, 0, 7), [0, 0, 1, 2, 0, 3, 0, 0])
    assert np.array_equal(S.dense(a, 3, 4), [2, 0])
    assert np.array_equal(S.dense(a, 7, 9), [0, 0, 0])
    out = S.dense(a, 2, 2)
    out[0] = 9.0                # a fresh array: the series is untouched
    assert a.coeff(2) == 1.0
    with pytest.raises(SeriesError):
        S.dense(a, 4, 3)


def test_project_empty_overlap_anchors_at_the_cut():
    a = LaurentSeries.from_pairs({2: 1.0, 3: 2.0}, AT_ZERO)
    above = S.project(a, lo=7)
    assert (above.lo_exp, above.width, above.coeff(7)) == (7, 1, 0.0)
    below = S.project(a, hi=0)
    assert (below.lo_exp, below.width) == (0, 1)
    assert below.flavor == AT_ZERO
    assert below.reliable == (float("-inf"), float("inf"))


def test_project_widens_reliability_trusted_up_to_the_cut():
    a = LaurentSeries(-3, np.arange(1.0, 8.0), TWO_SIDED, (-2, 2))
    kept = S.project(a, lo=-1)
    assert kept.reliable == (float("-inf"), 2)
    assert (kept.lo_exp, kept.hi_exp, kept.coeff(-1)) == (-1, 3, 3.0)
    kept = S.project(a, hi=1)
    assert kept.reliable == (-2, float("inf"))
    # a cut outside the trusted range keeps the edge where it was
    assert S.project(a, lo=-3).reliable == (-2, 2)
    assert S.project(a, hi=3).reliable == (-2, 2)


# ---------------------------------------------------------------------------
# single-coefficient products


def test_coeff_mul_matches_full_product():
    rng = np.random.default_rng(31)
    a = LaurentSeries(-3, rng.normal(size=9) + 1j * rng.normal(size=9))
    b = LaurentSeries(-2, rng.normal(size=7) + 1j * rng.normal(size=7))
    full = S.mul(a, b)
    for k in range(-6, 11):
        assert abs(S.coeff_mul(a, b, k) - full.coeff(k)) < 1e-14
    assert abs(S.residue_mul(a, b) - full.coeff(-1)) < 1e-14


def test_coeff_mul_honors_reliability():
    a = LaurentSeries(0, np.ones(3), TWO_SIDED, (0, 1))
    b = LaurentSeries(0, np.ones(3))
    with pytest.raises(WindowUnderflowError):
        S.coeff_mul(a, b, 4)


def _random_rows(rng, count, lo, width, reliable):
    return [LaurentSeries(lo + int(rng.integers(0, 3)),
                          rng.normal(size=width) + 1j * rng.normal(size=width),
                          TWO_SIDED, reliable) for _ in range(count)]


def test_residue_matrix_matches_residue_mul():
    rng = np.random.default_rng(7)
    rows_a = _random_rows(rng, 5, -8, 10, (-30, 25))
    rows_b = _random_rows(rng, 4, -6, 9, (-28, 30))
    got = S.residue_matrix(rows_a, rows_b)
    assert got.shape == (5, 4)
    for i, a in enumerate(rows_a):
        for j, b in enumerate(rows_b):
            want = S.residue_mul(a, b)
            # relative to the sum of |terms|: the two summation orders
            # round differently where the terms cancel
            scale = S.residue_mul(LaurentSeries(a.lo_exp, np.abs(a.coeffs)),
                                  LaurentSeries(b.lo_exp, np.abs(b.coeffs)))
            assert abs(got[i, j] - want) <= 1e-15 * scale.real, (i, j)


EXACT_WEIGHT = LaurentSeries(0, np.array([1.0, 0.5]))


@pytest.mark.parametrize("bad,weight", [
    # upper edge too low, the infinite side printed as -inf
    (LaurentSeries(-2, np.array([0.1, 0.1, 1.0]), AT_INFINITY, (S.NEG_INF, -5)),
     EXACT_WEIGHT),
    # both edges finite
    (LaurentSeries(-2, np.array([0.1, 0.1, 1.0]), TWO_SIDED, (-10, -5)),
     EXACT_WEIGHT),
    # factors whose product has an empty reliable window
    (LaurentSeries(0, np.array([0.1, 0.1, 0.1, 1.0]), TWO_SIDED, (0, 2)),
     LaurentSeries(0, np.array([1.0, 0.5]), TWO_SIDED, (0, 1))),
])
def test_residue_matrix_raises_the_residue_mul_error(bad, weight):
    good = S.monomial(-1, 1.0)
    S.residue_mul(good, weight)
    with pytest.raises(WindowUnderflowError) as want:
        S.residue_mul(bad, weight)
    with pytest.raises(WindowUnderflowError) as got:
        S.residue_matrix([good, bad], [weight, weight])
    assert str(got.value) == str(want.value)


def test_max_abs_diff_reliable_propagates_nan():
    a = LaurentSeries(0, np.array([1.0, np.nan, 2.0]))
    assert math.isnan(S.max_abs_diff_reliable(a, S.zero()))
    assert math.isnan(S.max_abs_diff_reliable(S.zero(), a))


def test_a_nan_is_no_lead_and_moves_no_window():
    """A NaN at a non-lead exponent is no candidate for the lead, so the windows
    of `mul`, `coeff_mul` and `residue_matrix` stay those of the clean series:
    the germ's edge at 5 reaches w**-1 through the lead -6, not through -7."""
    clean = LaurentSeries(-8, np.array([0.01, 0.1, 1.0, 0.5]))
    dirty = LaurentSeries(-8, np.array([0.01, np.nan, 1.0, 0.5]))
    germ = LaurentSeries(0, np.arange(1.0, 7.0), AT_ZERO, (S.NEG_INF, 5))
    assert clean.lead == dirty.lead == -6
    assert S.mul(dirty, germ).reliable == S.mul(clean, germ).reliable == (S.NEG_INF, -1)
    want = S.coeff_mul(clean, germ, -1)
    assert S.coeff_mul(dirty, germ, -1) == want == 0.5 * 5 + 1.0 * 6
    assert S.residue_matrix([clean], [germ]).tolist() == [[want]]
    assert S.residue_matrix([dirty], [germ]).tolist() == [[8.5]]  # not the dense product's 0 * NaN
    assert LaurentSeries(0, np.array([np.nan, 0.0])).lead is None


# ---------------------------------------------------------------------------
# hypothesis: ring axioms and determinism


coef = st.complex_numbers(min_magnitude=0.0, max_magnitude=2.0,
                          allow_nan=False, allow_infinity=False)


@st.composite
def small_series(draw):
    lo = draw(st.integers(min_value=-4, max_value=2))
    w = draw(st.integers(min_value=1, max_value=6))
    cs = draw(st.lists(coef, min_size=w, max_size=w))
    return LaurentSeries(lo, np.array(cs, dtype=np.complex128))


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series(), small_series())
def test_ring_axioms(a, b, c):
    scale_ref = max(1.0,
                    float(np.max(np.abs(a.coeffs))),
                    float(np.max(np.abs(b.coeffs))),
                    float(np.max(np.abs(c.coeffs)))) ** 3
    lhs = S.mul(S.add(a, b), c)
    rhs = S.add(S.mul(a, c), S.mul(b, c))
    assert S.max_abs_diff_reliable(lhs, rhs) <= 1e-13 * scale_ref
    comm = S.max_abs_diff_reliable(S.mul(a, b), S.mul(b, a))
    assert comm <= 1e-13 * scale_ref
    asc = S.max_abs_diff_reliable(S.mul(S.mul(a, b), c), S.mul(a, S.mul(b, c)))
    assert asc <= 1e-13 * scale_ref


@settings(max_examples=30, deadline=None)
@given(small_series())
def test_derivative_residue_exact_zero(a):
    assert S.derivative(a).residue() == 0.0


@settings(max_examples=20, deadline=None)
@given(small_series(), small_series())
def test_mul_deterministic(a, b):
    c1 = S.mul(a, b)
    c2 = S.mul(a, b)
    assert np.array_equal(c1.coeffs, c2.coeffs)
    assert c1.lo_exp == c2.lo_exp and c1.reliable == c2.reliable


@st.composite
def small_germ(draw):
    """`small_series` moved onto a germ of either flavor (`germ`), its
    coefficients below 1e-3 zeroed so that a lead stands out."""
    a = draw(small_series())
    cs = np.where(np.abs(a.coeffs) < 1e-3, 0, a.coeffs)
    assume(np.any(cs != 0))
    return germ(LaurentSeries(a.lo_exp, cs), draw(st.sampled_from([AT_ZERO, AT_INFINITY])))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=5), small_germ())
def test_int_pow_matches_iterated_mul(k, a):
    viapow = S.int_pow(a, k)
    direct = S.constant(1.0)
    for _ in range(k):
        direct = S.mul(direct, a)
    bound = max(1.0, float(np.max(np.abs(a.coeffs)))) ** max(k, 1)
    assert S.max_abs_diff_reliable(viapow, direct) <= 1e-12 * bound


# ---------------------------------------------------------------------------
# hypothesis: reciprocal and log1p against 40-digit mpmath


MP_DIGITS = 40


def power_sum_reference(u: LaurentSeries, depth: int, weight) -> LaurentSeries:
    """sum_k weight(k) * u**k, one clipped product per order of depth.

    The term-by-term sum the Newton kernels replaced, kept as the
    reference for the stored window and the reliability claim.
    """
    window = (0, depth) if u.flavor == AT_ZERO else (-depth, 0)
    step = S._decay_step(u)
    acc = S.constant(weight(0), u.flavor)
    power = S.constant(1.0, u.flavor)
    bare = LaurentSeries(u.lo_exp, u.coeffs, u.flavor)
    k = 1
    while step and k * step <= depth:
        power = S.clip(S.mul(power, bare), *window)
        acc = S.add(acc, S.scale(power, weight(k)))
        k += 1
    if u.flavor == AT_ZERO:
        reliable = (S.NEG_INF, min(depth, u.reliable[1]))
    else:
        reliable = (max(-depth, u.reliable[0]), S.POS_INF)
    return LaurentSeries(acc.lo_exp, acc.coeffs, u.flavor, reliable)


def geometry(a: LaurentSeries) -> tuple:
    return a.lo_exp, a.width, a.flavor, a.reliable


def local_exponent(flavor: str, i: int) -> int:
    return i if flavor == AT_ZERO else -i


def mp_series(a: LaurentSeries, j: int, n: int) -> list:
    """40-digit coefficients of a / w**j at local orders 0..n-1."""
    return [mp.mpc(a.coeff(j + local_exponent(a.flavor, i))) for i in range(n)]


def mp_reciprocal(b: list) -> list:
    """1/b by the triangular recurrence; exact zeros of b are skipped."""
    nz = [i for i in range(1, len(b)) if b[i]]
    r = [1 / b[0]]
    for k in range(1, len(b)):
        r.append(-sum(b[i] * r[k - i] for i in nz if i <= k) / b[0])
    return r


def mp_product(x: list, y: list) -> list:
    nz = [i for i in range(len(x)) if x[i]]
    return [sum(x[i] * y[k - i] for i in nz if i <= k) for k in range(len(x))]


def mp_log(b: list) -> list:
    """log(b) - log(b[0]) by k L_k = k b_k - sum_{i<k} i L_i b_{k-i} (b[0] = 1)."""
    nz = [i for i in range(1, len(b)) if b[i]]
    ell = [mp.mpc(0)]
    for k in range(1, len(b)):
        acc = k * b[k] - sum((k - i) * ell[k - i] * b[i] for i in nz if i < k)
        ell.append(acc / k)
    return ell


def assert_matches_oracle(got: LaurentSeries, j: int, want: list, tol: float):
    """Every stored coefficient inside the claimed window equals the oracle."""
    checked = 0
    for i, value in enumerate(want):
        k = j + local_exponent(got.flavor, i)
        if got.is_reliable(k) and got.lo_exp <= k <= got.hi_exp:
            assert abs(got.coeff(k) - complex(value)) <= tol, (k, got.coeff(k), value)
            checked += 1
    assert checked > 0


@st.composite
def germ_u(draw):
    """u with zero constant term decaying in its flavor direction.

    Decay step 1-3; a sparse u uses only multiples of the step.  The
    coefficients' moduli sum to at most 0.2, so 1/(1+u) and its cube keep
    their largest coefficient on the leading term.  Some draws carry a
    finite reliability edge; ``depth`` ranges below and above the width.
    """
    flavor = draw(st.sampled_from([AT_ZERO, AT_INFINITY]))
    step = draw(st.integers(min_value=1, max_value=3))
    sparse = draw(st.booleans())
    n_terms = draw(st.integers(min_value=1, max_value=6))
    orders = [step * (k + 1) if sparse else step + k for k in range(n_terms)]
    cs = np.array(draw(st.lists(coef, min_size=n_terms, max_size=n_terms)),
                  dtype=np.complex128)
    # a leading coefficient too small to normalise (0 or subnormal: the
    # scale factor below would overflow) is replaced, as a zero one was
    cs[0] = cs[0] if abs(cs[0]) >= 1e-100 else 1.0
    cs *= draw(st.floats(min_value=0.01, max_value=0.2)) / np.sum(np.abs(cs))
    pairs = {local_exponent(flavor, i): c for i, c in zip(orders, cs)}
    reliable = None
    if draw(st.booleans()):
        edge = draw(st.integers(min_value=step, max_value=orders[-1] + 8))
        reliable = ((S.NEG_INF, edge) if flavor == AT_ZERO
                    else (-edge, S.POS_INF))
    u = LaurentSeries.from_pairs(pairs, flavor, reliable)
    depth = draw(st.integers(min_value=max(1, orders[-1] - 6),
                             max_value=orders[-1] + 24))
    return u, depth


@settings(max_examples=60, deadline=None)
@given(germ_u(),
       st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0,
                          allow_nan=False, allow_infinity=False),
       st.integers(min_value=-2, max_value=2))
def test_negative_powers_match_mpmath(case, c, j):
    u, depth = case
    a = S.shift(S.scale(S.add(S.constant(1.0, u.flavor), u), c), j)
    with mp.workdps(MP_DIGITS):
        rec_mp = mp_reciprocal(mp_series(a, j, depth + 1))
        cube_mp = mp_product(rec_mp, mp_product(rec_mp, rec_mp))
    rec = S.int_pow(a, -1, depth=depth)
    cube = S.int_pow(a, -3, depth=depth)
    assert_matches_oracle(rec, -j, rec_mp, 1e-13)
    assert_matches_oracle(cube, -3 * j, cube_mp, 1e-13)

    c0, j0, u0 = S.split_normalize(a)
    ref = S.shift(S.scale(power_sum_reference(u0, depth, lambda k: (-1.0) ** k),
                          1.0 / c0), -j0)
    for row, k in ((rec, 1), (cube, 3)):
        # rows of a's chain: local orders 0..depth past the lead, reliable as the reciprocal
        lead = -k * j0
        assert geometry(row) == (lead if a.flavor == AT_ZERO else lead - depth, depth + 1,
                                 ref.flavor, tuple(e - (k - 1) * j0 for e in ref.reliable))


@settings(max_examples=60, deadline=None)
@given(germ_u())
def test_log1p_matches_mpmath(case):
    u, depth = case
    with mp.workdps(MP_DIGITS):
        one_plus_u = mp_series(u, 0, depth + 1)
        one_plus_u[0] += 1
        log_mp = mp_log(one_plus_u)
    got = S.log1p(u, depth=depth)
    assert_matches_oracle(got, 0, log_mp, 1e-14)
    ref = power_sum_reference(u, depth,
                              lambda k: 0.0 if k == 0 else (-1.0) ** (k + 1) / k)
    assert geometry(got) == geometry(ref)


_B = 1.03 + 0.02j  # a large-|b| pair at the edge of the benchmark's coefficient box
LARGE_B_GERMS = {
    "g": {1: _B, 0: 0.1 - 0.05j, -1: 0.05 + 0.04j, -2: -0.03 + 0.02j},
    "f": {1: 1 / _B, 2: 0.05 - 0.03j, 3: 0.03 + 0.02j},
}


@pytest.fixture(scope="module")
def deep_oracles():
    """40-digit reciprocal, cube of it and log at local orders 0..346 of each germ."""
    out = {}
    with mp.workdps(MP_DIGITS):
        for name, pairs in LARGE_B_GERMS.items():
            a = LaurentSeries.from_pairs(pairs, AT_INFINITY if name == "g" else AT_ZERO)
            b = mp_series(a, 1, 347)
            cube = mp_reciprocal(mp_product(b, mp_product(b, b)))
            out[name] = a, mp_reciprocal(b), cube, mp_log([x / b[0] for x in b])
    return out


@pytest.mark.parametrize("depth", [140, 346])
@pytest.mark.parametrize("name", sorted(LARGE_B_GERMS))
def test_deep_reciprocal_and_log1p_match_mpmath(deep_oracles, name, depth):
    # the lifted kernel far past the hypothesis audit's depths, on both
    # germs of a large-|b| pair
    a, rec_mp, cube_mp, log_mp = deep_oracles[name]
    n = depth + 1
    assert_matches_oracle(S.int_pow(a, -1, depth=depth), -1, rec_mp[:n], 1e-14)
    assert_matches_oracle(S.int_pow(a, -3, depth=depth), -3, cube_mp[:n], 1e-14)
    assert_matches_oracle(S.log1p(S.split_normalize(a)[2], depth=depth), 0, log_mp[:n], 1e-14)


def _germ_pair():
    """An AT_ZERO and an AT_INFINITY germ whose reciprocals reach every depth."""
    rng = np.random.default_rng(19)
    c = (rng.standard_normal(24) + 1j * rng.standard_normal(24)) * 0.6 ** np.arange(1, 25)
    return (LaurentSeries(0, np.concatenate([[1.5 - 0.5j], c]), AT_ZERO),
            LaurentSeries(-24, np.concatenate([c[::-1], [1.5 - 0.5j]]), AT_INFINITY))


@pytest.mark.parametrize("side", [0, 1], ids=["at-zero", "at-infinity"])
def test_reciprocal_prefixes_do_not_depend_on_earlier_requests(side):
    # one array per germ grows with the deepest request, and every
    # coefficient keeps the bits a fresh build at that depth gives
    def fresh(depth):
        return S.int_pow(_germ_pair()[side], -1, depth=depth)

    arrays = []
    for depths in ((40, 150), (150, 40), (346,), (40, 346, 41, 150, 64)):
        a = _germ_pair()[side]
        for depth in depths:
            assert fields(S.int_pow(a, -1, depth=depth)) == fields(fresh(depth)), depths
        arrays.append(vars(S.split_normalize(a)[2])["inverse"][1])
    longest = max(arrays, key=len)
    assert len(longest) == 512  # the end of 347's power-of-two block
    for r in arrays:
        assert r.tobytes() == longest[: r.size].tobytes()


def test_negative_powers_and_log_of_one_germ_grow_one_reciprocal(monkeypatch):
    runs = []
    lift = S._lift
    monkeypatch.setattr(S, "_lift", lambda a, r: runs.append(a.size) or lift(a, r))
    a = _germ_pair()[0]
    c, j, u = S.split_normalize(a)
    assert S.split_normalize(a) == (c, j, u) and S.split_normalize(a)[2] is u
    S.int_pow(a, -1, depth=40)
    S.powers(a, -3, 60)
    S.log1p(u, depth=100)
    assert runs == [64, 128]  # each to the end of its request's power-of-two block
    S.int_pow(a, -2, depth=80)
    S.powers(a, -5, 100)
    S.log1p(u, depth=30)
    assert runs == [64, 128]
    assert vars(u)["inverse"][1].size == 128


@pytest.mark.parametrize("side", [0, 1], ids=["at-zero", "at-infinity"])
def test_reciprocal_grows_to_the_end_of_its_block(side, monkeypatch):
    # requests of 131, 135, 147 and 151 terms, each past the one before,
    # make one Newton run, and each reads the bits a fresh germ gives
    depths = (130, 134, 146, 150)
    fresh = [fields(S.int_pow(_germ_pair()[side], -1, depth=d)) for d in depths]
    runs = []
    lift = S._lift
    monkeypatch.setattr(S, "_lift", lambda a, r: runs.append(a.size) or lift(a, r))
    a = _germ_pair()[side]
    assert [fields(S.int_pow(a, -1, depth=d)) for d in depths] == fresh
    assert runs == [256]


# ---------------------------------------------------------------------------
# power chains and linear combinations


def horner(coeffs, base: LaurentSeries, window) -> LaurentSeries:
    """sum_{k>=1} coeffs[k-1] * base**k by Horner's rule, clipped to ``window``.

    The composition `series.powers` and `series.combine` replaced, kept as
    the reference for `invert_function` and the Phi/Psi sums of log tau.
    Partial sums keep one exponent of slack on each side of the window.
    """
    if not coeffs:
        return S.zero(base.flavor)
    acc = S.constant(coeffs[-1], base.flavor)
    for c in reversed(coeffs[:-1]):
        acc = S.clip(S.mul(acc, base), window[0] - 1, window[1] + 1)
        acc = S.add(acc, S.constant(c, base.flavor))
    return S.clip(S.mul(acc, base), window[0], window[1])


def invert_reference(a: LaurentSeries, depth: int) -> LaurentSeries:
    """Newton inversion composing by `horner`: two passes per step."""

    def bare(s):
        return LaurentSeries(s.lo_exp, s.coeffs, s.flavor)

    n_iter = math.ceil(math.log2(depth + 1)) + 2
    if a.flavor == AT_ZERO:
        window = (1, 1 + depth)
        g = S.monomial(1, 1.0 / a.coeff(1), AT_ZERO)
        acoeffs = [a.coeff(k) for k in range(1, depth + 2)]
        dcoeffs = [k * a.coeff(k) for k in range(1, depth + 2)]
        for _ in range(n_iter):
            resid = S.sub(horner(acoeffs, g, (1, depth + 2)), S.monomial(1, 1.0, AT_ZERO))
            dacc = S.add(horner(dcoeffs[1:], g, (1, depth + 1)), S.constant(dcoeffs[0]))
            dinv = bare(S.int_pow(dacc, -1, depth=depth + 2))
            g = bare(S.clip(S.sub(g, S.clip(S.mul(resid, dinv), *window)), *window))
        return LaurentSeries(g.lo_exp, g.coeffs, AT_ZERO, (S.NEG_INF, window[1]))
    window = (1 - depth, 1)
    b, b0 = a.coeff(1), a.coeff(0)
    g = LaurentSeries.from_pairs({1: 1.0 / b, 0: -b0 / b}, AT_INFINITY)
    tail = [a.coeff(-k) for k in range(1, depth)] + [0.0]
    dtail = [-k * c for k, c in enumerate(tail, 1)]
    for _ in range(n_iter):
        rec = bare(S.int_pow(g, -1, depth=depth + 2))
        comp = S.add(horner(tail, rec, (window[0] - 1, 1)),
                     S.add(S.scale(g, b), S.constant(b0, AT_INFINITY)))
        resid = S.sub(comp, S.monomial(1, 1.0, AT_INFINITY))
        dcomp = S.clip(S.mul(horner(dtail, rec, (window[0] - 1, 0)), rec), window[0] - 1, 0)
        dinv = bare(S.int_pow(S.add(dcomp, S.constant(b, AT_INFINITY)), -1, depth=depth + 2))
        g = bare(S.clip(S.sub(g, S.clip(S.mul(resid, dinv), *window)), *window))
    return LaurentSeries(g.lo_exp, g.coeffs, AT_INFINITY, (window[0], S.POS_INF))


def _decaying(flavor, seed, lead):
    rng = np.random.default_rng(seed)
    sign = 1 if flavor == AT_ZERO else -1
    coefs = dict(lead)
    for k in range(1, 12):
        coefs[1 + sign * k] = 0.3 ** k * complex(rng.normal(), rng.normal())
    return LaurentSeries.from_pairs(coefs, flavor)


@pytest.mark.parametrize("a", [
    _decaying(AT_ZERO, 9, {1: 1.3}),
    _decaying(AT_INFINITY, 10, {1: 0.8, 0: 0.2}),
    LaurentSeries.from_pairs({1: 1.0, -1: 0.1}, AT_INFINITY),
    LaurentSeries(1, np.ones(14), AT_ZERO),
], ids=["at-zero", "at-infinity", "joukowski", "geometric"])
@pytest.mark.parametrize("depth", [1, 2, 7, 30])
def test_invert_function_matches_the_horner_inversion(a, depth):
    got = S.invert_function(a, depth)
    want = invert_reference(a, depth)
    assert geometry(got) == geometry(want)
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * np.max(np.abs(want.coeffs))


def test_product_with_an_all_zero_factor_has_a_defined_window():
    trunc = LaurentSeries(-6, np.arange(1.0, 9.0), AT_INFINITY, (-6, S.POS_INF))  # lead 1
    exact_zero = LaurentSeries(4, np.zeros(3))
    assert exact_zero.lead is None
    assert S.mul(exact_zero, trunc).reliable == (S.NEG_INF, S.POS_INF)
    # a truncated zero: its own edge -9, paired with the other's lead 1
    zero = LaurentSeries(6, np.zeros(2), AT_INFINITY, (-9, S.POS_INF))
    assert S.mul(zero, trunc).reliable == S.mul(trunc, zero).reliable == (-8, S.POS_INF)
    assert S.residue_mul(zero, trunc) == 0.0
    assert np.array_equal(S.residue_matrix([zero, trunc], [exact_zero, zero]),
                          np.zeros((2, 2)))


def test_negative_power_rows_match_the_mul_chain(fix_rand):
    # the rows of g and f against products of their reciprocal, cut at 40
    for a in (fix_rand.g, fix_rand.f):
        for k, (row, want) in enumerate(zip(S.powers(a, -7, 40), powers_reference(a, -7, 40)), 1):
            assert (row.flavor, row.reliable) == (want.flavor, want.reliable)
            assert (row.lo_exp, row.hi_exp) == ((-k - 40, -k) if a is fix_rand.g else (-k, 40 - k))
            got, ref = S.dense(row, row.lo_exp, row.hi_exp), S.dense(want, row.lo_exp, row.hi_exp)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("a", [
    _decaying(AT_ZERO, 9, {1: 1.3}),
    _decaying(AT_INFINITY, 10, {1: 0.8, 0: 0.2}),
], ids=["at-zero", "at-infinity"])
def test_invert_function_builds_one_chain(a, monkeypatch):
    # Lagrange inversion: residues of a**-1 .. a**-(depth+1) at zero and of
    # a**1 .. a**(depth-1) at infinity, each row reaching w**-1, off a's own chain
    calls = []
    real = S._chain_rows
    monkeypatch.setattr(S, "_chain_rows", lambda base, n, depth: calls.append((n, depth))
                        or real(base, n, depth))
    depth = 133
    S.invert_function(a, depth)
    assert calls == [(-depth - 1, depth) if a.flavor == AT_ZERO else (depth - 1, depth)]
    assert set(k[0] for k in vars(a) if isinstance(k, tuple)) == {"powers"}


@pytest.mark.parametrize("a", [
    _decaying(AT_ZERO, 9, {1: 1.3}),
    _decaying(AT_INFINITY, 10, {1: 0.8, 0: 0.2}),
    LaurentSeries.from_pairs({1: 1.0, -1: 0.1}, AT_INFINITY),
    LaurentSeries.from_pairs({1: 2.0}, AT_ZERO),
    LaurentSeries.from_pairs({1: 1.5, 0: 0.3}, AT_INFINITY),  # a**k ends at w**0
], ids=["at-zero", "at-infinity", "joukowski", "monomial", "affine"])
def test_invert_function_reads_the_w_minus_1_entry_of_each_chain_row(a):
    """Each coefficient is res(a**-k) / k at zero, -res(a**k) / k at infinity,
    the w**-1 entry of the row `powers` gives, bit for bit, whichever depths
    were asked of the chain before (a row built deeper holds more entries)."""
    zero_side = a.flavor == AT_ZERO
    for depths in ((1, 2, 7, 30, 3), (30, 7, 3, 2, 1)):
        b = LaurentSeries(a.lo_exp, a.coeffs, a.flavor, a.reliable)  # a fresh chain
        for depth in depths:
            got = S.invert_function(b, depth)
            rows = S.powers(b, -depth - 1 if zero_side else depth - 1, depth)
            res = np.array([row.coeff(-1) for row in rows], dtype=np.complex128)
            want = res / np.arange(1, depth + 2) if zero_side else \
                np.append((-res / np.arange(1, depth))[::-1], [-b.coeff(0) / b.coeff(1),
                                                               1.0 / b.coeff(1)])
            assert got.coeffs.tobytes() == want.tobytes(), depth


def test_sliced_and_stacked_leads_are_their_parts_leads():
    """A slice or a stack reads its parts' leads, with `LaurentSeries.lead`'s
    NaN rule (a NaN is no candidate, an all-zero or all-NaN row has none) and
    ties going to the lowest exponent; the parts' arrays are not recomputed."""
    coeffs = [[0, 2, -2j, 1], [0, 0, 0, 0], [np.nan, 1, 0, 0], [np.nan, np.nan, 0, 0],
              [3, 0, 0, 3j], [0, 0, 0, 1e-300]]
    series = [LaurentSeries(lo, np.array(c, dtype=complex)) for lo, c in zip(range(-3, 3), coeffs)]
    want = np.array([np.nan if r.lead is None else r.lead for r in series])
    rows = S.Rows.of(series)
    assert np.array_equal(rows.leads, want, equal_nan=True)
    assert np.array_equal(S.Rows(rows.lo, rows.block, rows.stored, rows.reliable).leads, want,
                          equal_nan=True)
    for part in (rows[1:5], rows[::-1], rows[4:], rows[:0]):
        assert np.shares_memory(part.leads, rows.leads) or not len(part)
        fresh = S.Rows(part.lo, part.block, part.stored, part.reliable)
        assert np.array_equal(part.leads, fresh.leads, equal_nan=True)
    stack = S.Rows.of([rows[3:], series[0], rows[:2]])
    assert np.array_equal(stack.leads, np.concatenate([want[3:], want[:1], want[:2]]),
                          equal_nan=True)
    assert np.array_equal(stack.leads, S.Rows(stack.lo, stack.block, stack.stored,
                                              stack.reliable).leads, equal_nan=True)
    assert np.array_equal(S.Rows.of(series[::2]).leads, want[::2], equal_nan=True)


@st.composite
def power_case(draw):
    """A germ, a signed chain length and a depth (none, for whole rows, only
    with a positive length).

    The germ's lead outweighs its tail, so the lead of every power and of
    the reciprocal is its leading term; some tail terms may be zero, the
    germ may be padded with exact zeros the way `invert_function` passes
    it, dense on its window, and its tail may carry a finite edge inside or
    outside the stored window.
    """
    flavor = draw(st.sampled_from([AT_ZERO, AT_INFINITY]))
    lead = draw(st.complex_numbers(min_magnitude=1.0, max_magnitude=2.0,
                                   allow_nan=False, allow_infinity=False))
    tail = draw(st.lists(st.one_of(st.just(0j), st.complex_numbers(
        min_magnitude=0.05, max_magnitude=0.3, allow_nan=False, allow_infinity=False)),
        max_size=3))
    j, pad_lo, pad_hi = draw(st.integers(-2, 2)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    local = [lead] + tail  # local orders 0, 1, ...: exponents j + i at zero, j - i at infinity
    cs = [0j] * pad_lo + (local if flavor == AT_ZERO else local[::-1]) + [0j] * pad_hi
    lo = j - pad_lo if flavor == AT_ZERO else j - len(tail) - pad_lo
    edge = draw(st.integers(-1, 6))
    reliable = draw(st.sampled_from([None, (S.NEG_INF, j + edge) if flavor == AT_ZERO
                                     else (j - edge, S.POS_INF)]))
    n = draw(st.integers(-12, 12))
    depth = draw(st.integers(0, 25) if n < 0 else st.one_of(st.none(), st.integers(0, 25)))
    return LaurentSeries(lo, np.array(cs), flavor, reliable), n, depth


def powers_reference(base: LaurentSeries, n: int, depth=None) -> list:
    """`powers` as the recurrence it fuses: each row a `mul` of the previous
    row by the base, for n < 0 by `int_pow`'s reciprocal at ``depth``, then
    with a depth a `clip` to ``depth`` local orders past the row's lead."""
    _, j, _ = S.split_normalize(base)
    step, lead = (base, j) if n >= 0 else (S.int_pow(base, -1, depth=depth), -j)
    rows = []
    for k in range(1, abs(n) + 1):
        row = step if k == 1 else S.mul(rows[-1], step)
        if depth is not None:
            top = k * lead + depth if base.flavor == AT_ZERO else k * lead - depth
            row = S.clip(row, *sorted((k * lead, top)))
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(power_case())
@example((LaurentSeries(0, np.array([1e-8 + 1j, 0.09375, -0.126953125j]), AT_ZERO), -2, 10))
def test_fused_powers_equal_the_mul_then_clip_recurrence(case):
    """Each row holds what the recurrence gives on the row's stored window,
    to rounding, and exact zeros past it, with the same flavor and edges.
    Rounding is measured against the recurrence run on the moduli of its
    step (for n < 0, of the reciprocal): a row's own modulus can cancel
    below its rounding error (the pinned example, at w^10 of row 2)."""
    base, n, depth = case
    want = powers_reference(base, n, depth)
    step = base if n >= 0 else S.int_pow(base, -1, depth=depth)
    mags = powers_reference(LaurentSeries(step.lo_exp, np.abs(step.coeffs), step.flavor),
                            abs(n), depth)
    rows = S.powers(base, n, depth)
    assert len(rows) == abs(n)
    for row, ref, mag in zip(rows, want, mags):
        assert (row.flavor, row.reliable) == (ref.flavor, ref.reliable)
        lo, hi = min(row.lo_exp, ref.lo_exp), max(row.hi_exp, ref.hi_exp)
        diff = np.abs(S.dense(row, lo, hi) - S.dense(ref, lo, hi))
        assert np.all(diff <= 1e-13 * np.abs(S.dense(mag, lo, hi))), (row, ref)


@settings(max_examples=60, deadline=None)
@given(power_case())
def test_powers_rows_equal_unclipped_powers_on_the_window(case):
    """A row is exact on the window from its lead to its depth: the unclipped
    power (for n < 0, of the reciprocal read at that depth) agrees there."""
    base, n, depth = case
    _, j, _ = S.split_normalize(base)
    step = base if n >= 0 else S.int_pow(base, -1, depth=depth)
    full = [step]
    while len(full) < abs(n):
        full.append(S.mul(full[-1], step))
    for k, (row, ref) in enumerate(zip(S.powers(base, n, depth), full), 1):
        lead = j * k if n > 0 else -j * k
        if depth is None:
            lo, hi = ref.lo_exp, ref.hi_exp
        else:
            lo, hi = sorted((lead, lead + depth if base.flavor == AT_ZERO else lead - depth))
        diff = np.abs(S.dense(row, lo, hi) - S.dense(ref, lo, hi))
        assert np.all(diff <= 1e-12 * max(1.0, np.max(np.abs(ref.coeffs))))


def test_powers_of_nothing_is_empty():
    assert S.powers(S.monomial(1, 2.0, AT_ZERO), 0) == []
    assert S.powers(S.monomial(1, 2.0, AT_INFINITY), 0, 3) == []


def test_powers_need_a_germ_and_a_depth_below_zero():
    with pytest.raises(SeriesError, match="germ flavor"):
        S.powers(S.monomial(1, 2.0), 2)
    with pytest.raises(NonInvertibleError):
        S.powers(LaurentSeries(1, np.zeros(3), AT_ZERO), 2)
    with pytest.raises(SeriesError, match="need a depth"):
        S.powers(S.monomial(1, 2.0, AT_ZERO), -2)


def fields(a: LaurentSeries) -> tuple:
    """Every field of ``a``, coefficients as bytes, with the field types."""
    return (a.lo_exp, type(a.lo_exp), a.coeffs.dtype, a.coeffs.tobytes(), a.flavor,
            a.reliable, tuple(map(type, a.reliable)))


def test_zero_padding_does_not_narrow_a_chain_claim():
    """`invert_function` passes `powers` a base dense on its window: the
    rows of a zero-padded germ are the unpadded germ's, field for field."""
    core = LaurentSeries.from_pairs({1: 0.8, 0: 0.2, -1: 0.1 + 0.3j}, AT_INFINITY)
    padded = LaurentSeries(-9, S.dense(core, -9, 1), AT_INFINITY)
    for n, depth in ((6, 7), (6, None), (-6, 7)):
        assert ([fields(r) for r in S.powers(core, n, depth)]
                == [fields(r) for r in S.powers(padded, n, depth)])


@pytest.mark.parametrize("name", ["fix_sig", "fix_rand"])
def test_chain_rows_do_not_depend_on_the_order_of_requests(request, name):
    """The rows of g and f (exact or truncated, both signs) are the ones a
    fresh germ gives, whichever requests came first, and a shallower
    request reads prefixes of a deeper one."""
    pair = request.getfixturevalue(name)
    germs = [pair.g, pair.f] + [LaurentSeries(a.lo_exp, a.coeffs, a.flavor, edge) for a, edge in
                                ((pair.g, (-pair.order - 4, S.POS_INF)),
                                 (pair.f, (S.NEG_INF, pair.order + 4)))]
    asks = [(9, 40), (4, 90), (12, 15), (6, None), (-9, 40), (-4, 90), (-12, 15), (-1, 3)]

    def copy(a):
        return LaurentSeries(a.lo_exp, a.coeffs, a.flavor, a.reliable)

    for a in germs:
        fresh = {ask: [fields(r) for r in S.powers(copy(a), *ask)] for ask in asks}
        for order in (asks, asks[::-1], asks[::2] + asks[1::2]):
            b = copy(a)
            assert {ask: [fields(r) for r in S.powers(b, *ask)] for ask in order} == fresh
        for (n, d), (m, e) in [((4, 90), (9, 40)), ((12, 15), (4, 90)), ((-1, 3), (-12, 15))]:
            for short, long in zip(S.powers(a, n, d), S.powers(a, m, e)):
                k = min(short.width, long.width)
                local = (lambda r: r.coeffs) if a.flavor == AT_ZERO else (lambda r: r.coeffs[::-1])
                assert local(short)[:k].tobytes() == local(long)[:k].tobytes()


def germ(a: LaurentSeries, flavor: str) -> LaurentSeries:
    """``a``'s coefficients moved to exponents >= 1 (AT_ZERO) or <= -1
    (AT_INFINITY), with a finite edge in the tail's direction."""
    if flavor == AT_ZERO:
        return LaurentSeries(1, a.coeffs, AT_ZERO, (S.NEG_INF, a.width + 3))
    return LaurentSeries(-a.width, a.coeffs, AT_INFINITY, (-a.width - 3, S.POS_INF))


OWNED_KERNELS = {  # every kernel that builds its output without validation
    "mul": lambda a, b: [S.mul(a, b), S.mul(germ(a, AT_ZERO), germ(b, AT_ZERO))],
    "add": lambda a, b: [S.add(a, b), S.sub(germ(a, AT_INFINITY), b)],
    "scale": lambda a, b: [S.scale(a, 2.0 - 1j)],
    "shift": lambda a, b: [S.shift(a, -3), S.shift(germ(a, AT_ZERO), 2)],
    "clip": lambda a, b: [S.clip(a, -1, 1), S.clip(a, 5, 9), S.clip(germ(b, AT_INFINITY), -2, 0)],
    "project": lambda a, b: [S.project(a, -1, 1), S.project(a, 5, None), S.project(a, None, -9)],
    "derivative": lambda a, b: [S.derivative(a), S.derivative(S.constant(3.0))],
    "combine": lambda a, b: [S.combine([1.0, 2j], [a, germ(b, AT_ZERO)])],
    "split_normalize": lambda a, b: [S.split_normalize(germ(a, f))[2]
                                     for f in (AT_ZERO, AT_INFINITY)],
    "germ helpers": lambda a, b: [
        *(S.int_pow(germ(a, f), -2, depth=6) for f in (AT_ZERO, AT_INFINITY)),
        *(S.log1p(germ(a, f), depth=5) for f in (AT_ZERO, AT_INFINITY)),
        S.log1p(LaurentSeries(1, np.zeros(2), AT_ZERO), depth=5)],
    "powers": lambda a, b: [*(r for f in (AT_ZERO, AT_INFINITY) for n, d in
                              ((3, None), (3, 2), (-3, 4)) for r in S.powers(germ(a, f), n, d))],
    "divide_on_circle": lambda a, b: [
        *S.divide_on_circle([(a, (-3, 3)), (b, (-5, -1))],
                            S.add(S.constant(10.0), S.scale(b, 0.1)), samples=64),
        *S.divide_on_circle([(a, (-2, 2))], S.monomial(2, 3.0))],
}


@pytest.mark.parametrize("kernel", sorted(OWNED_KERNELS))
@settings(max_examples=25, deadline=None)
@given(small_series(), small_series())
def test_kernel_output_is_canonical(kernel, a, b):
    """Kernel output is what the validated constructor would make of it:
    frozen complex128 coefficients it would not copy, an int ``lo_exp``,
    and fields it leaves unchanged."""
    a = LaurentSeries(a.lo_exp, np.where(np.abs(a.coeffs) < 1e-3, 0, a.coeffs))  # leads invert
    assume(np.any(a.coeffs != 0))
    for out in OWNED_KERNELS[kernel](a, b):
        arr = out.coeffs
        base = arr if arr.base is None else arr.base
        assert arr.ndim == 1 and arr.dtype == np.complex128 and not arr.flags.writeable
        assert isinstance(base, np.ndarray) and not base.flags.writeable
        assert type(out.lo_exp) is int
        assert fields(LaurentSeries(out.lo_exp, arr.copy(), out.flavor, out.reliable)) == fields(out)


@st.composite
def combine_case(draw):
    """Coefficients and rows of mixed flavors and reliable windows."""
    n = draw(st.integers(min_value=0, max_value=6))
    rows = []
    for _ in range(n):
        s = draw(small_series())
        flavor = draw(st.sampled_from([AT_ZERO, AT_INFINITY, TWO_SIDED]))
        reliable = draw(st.sampled_from([None, (-6, 6), (-2, 9), (S.NEG_INF, 3),
                                         (-3, S.POS_INF), (7, 9), (-9, -7)]))
        rows.append(LaurentSeries(s.lo_exp, s.coeffs, flavor, reliable))
    return draw(st.lists(coef, min_size=n, max_size=n)), rows


@settings(max_examples=80, deadline=None)
@given(combine_case())
def test_combine_matches_the_add_scale_chain(case):
    coeffs, rows = case
    terms = [S.scale(r, c) for c, r in zip(coeffs, rows)]
    try:
        want = S.zero()
        if terms:
            want = terms[0]
            for term in terms[1:]:
                want = S.add(want, term)
    except WindowUnderflowError as exc:
        with pytest.raises(WindowUnderflowError, match=str(exc)):
            S.combine(coeffs, rows)
        return
    got = S.combine(coeffs, rows)
    assert geometry(got) == geometry(want)
    mags = S.combine(np.abs(coeffs), [LaurentSeries(r.lo_exp, np.abs(r.coeffs)) for r in rows])
    assert np.all(np.abs(got.coeffs - want.coeffs) <= 1e-15 * mags.coeffs.real)


def test_phi_psi_sums_match_horner(fix_rand):
    """log tau's Z2 reads Phi(g) and Psi(f) built by `combine` as Horner built them."""
    from dtoda import coords as C
    from dtoda import plan
    from dtoda.hamiltonian import HamiltonianH, eval_along

    h, order = HamiltonianH.of((1, 1, 1.0)), 8
    t, v, _ = C.time_variables(fix_rand, h, order)
    z2 = C.log_tau(fix_rand, h, t, v, C.v_zero(fix_rand, h))[1]
    width = plan.halfwidth(fix_rand, h, order)
    m1, m2 = (S.mul(eval_along(d, fix_rand, (-width, width)), p)
              for d, p in ((h.d1(), fix_rand.g_prime()), (h.d2(), fix_rand.f_prime())))
    g_inv = S.int_pow(fix_rand.g, -1, depth=width + order + 8)
    phi = horner([v[n] / n for n in range(1, order + 1)], g_inv, (-width, width))
    psi = horner([v[-n] / n for n in range(1, order + 1)], fix_rand.f, (-width, width))
    want = (S.residue_mul(m1, phi) + S.residue_mul(m2, psi)) / 2.0
    assert abs(z2 - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("name", ["fix_sig", "fix_rand"])
def test_chain_blocks_are_the_clipped_rows(request, name):
    """`Rows.chain` reads each row of `powers` as `clip` cuts it: the same
    coefficients, edges and lead; a row its depth cuts short of the window's
    end on its decaying side is stored out to that end, zero past its depth;
    a slice is the block of its rows."""
    pair = request.getfixturevalue(name)
    for a, n, window, depth in ((pair.g, 9, (-30, 20), 60), (pair.g, -9, (-30, 20), 4),
                                (pair.f, -9, (-20, 30), 6), (pair.f, 9, (-20, 30), 3)):
        rows = S.Rows.chain(a, n, *window, depth=depth)
        want = [S.clip(r, *window) for r in S.powers(a, n, depth)]
        assert len(rows) == len(want) == 9
        for i, (got, ref) in enumerate(zip(rows, want)):
            assert got.reliable == ref.reliable and rows.leads[i] == ref.lead
            assert np.array_equal(S.dense(got, *window), S.dense(ref, *window))
            short = ref.hi_exp < window[1] if a.flavor == AT_ZERO else ref.lo_exp > window[0]
            reach = (got.hi_exp == window[1]) if a.flavor == AT_ZERO else (got.lo_exp == window[0])
            assert reach if short and ref.reliable != (S.NEG_INF, S.POS_INF) else \
                (got.lo_exp, got.hi_exp) == (ref.lo_exp, ref.hi_exp)
        part = rows[2:5]
        assert np.array_equal(part.dense(*window), rows.dense(*window)[2:5])
        assert part.stored.tolist() == rows.stored[2:5].tolist()


# ---------------------------------------------------------------------------
# chain blocks against the per-row path they replace


def per_row_chain(a: LaurentSeries, n: int, depth) -> tuple:
    """(flavor, rows) of ``powers(a, n, depth)`` built row by row on a fresh
    list, each row (lo_exp, coeffs, reliable, whole): the chain kernel as a
    list of series fields, with no store."""
    s, n = (1, int(n)) if n >= 0 else (-1, -int(n))
    depth = S.POS_INF if depth is None else int(depth)
    c, j, u = S.split_normalize(a)
    nz = np.nonzero(u.coeffs)[0]
    x = 0 if not nz.size else (u.lo_exp + int(nz[-1]) if u.flavor == AT_ZERO
                               else -(u.lo_exp + int(nz[0])))
    ends = [k * x if s > 0 else S.POS_INF if x else 0 for k in range(1, n + 1)]
    tops = [min(depth, end) for end in ends]
    base = (S._local(S.shift(a, -j), x + 1) if s > 0
            else S._inverse(u, max(tops, default=0) + 1)[1])
    cut, whole = S._germ_reliable(u, depth), S._germ_reliable(u, S.POS_INF)
    rows, power = [], None
    for k, (top, end) in enumerate(zip(tops, ends), 1):
        m = top + 1
        power = base[:m] if k == 1 else np.convolve(power[:m], base[:m])[:m]
        row = S._frozen(power.copy() if s > 0 else power * np.exp(-k * np.log(c)))
        lead = s * j * k
        reliable = tuple(e + lead for e in (cut if s < 0 or top < end else whole))
        rows.append((lead, row[: top + 1], reliable, top == end) if u.flavor == AT_ZERO
                    else (lead - top, row[top::-1], reliable, top == end))
    return u.flavor, rows


def per_row_powers(a: LaurentSeries, n: int, depth=None) -> list:
    """`powers` as series made one row at a time."""
    flavor, rows = per_row_chain(a, n, depth)
    return [S._owned(lo, c, flavor, r) for lo, c, r, _ in rows]


def per_row_block(a: LaurentSeries, n: int, lo: int, hi: int, depth=None) -> S.Rows:
    """`Rows.chain` as each row `clip`-cut and stacked: a row its depth cuts
    short is stored out to the window's end on its decaying side."""
    if depth is None:
        j = S.split_normalize(a)[1]
        leads = (j if n > 0 else -j, j * n)
        depth = max(hi - min(leads) if a.flavor == AT_ZERO else max(leads) - lo, 0)
    (_, rows), up = per_row_chain(a, n, depth), a.flavor == AT_ZERO
    out = []
    for d_lo, data, reliable, whole in rows:
        c_lo, c, _, reliable = S._cut(d_lo, data, TWO_SIDED, reliable, lo, hi)
        d_hi = d_lo + data.size - 1
        s_lo, s_hi = (d_lo, d_hi if whole else max(d_hi, hi)) if up else (
            d_lo if whole else min(d_lo, lo), d_hi)
        s_lo, s_hi = max(lo, s_lo), min(hi, s_hi)
        stored = (s_lo, s_hi) if s_lo <= s_hi else (c_lo, c_lo + c.size - 1)
        out.append((c_lo, c, reliable, stored))
    lo, hi = min((st[0] for *_, st in out), default=0), max((st[1] for *_, st in out), default=0)
    block = np.zeros((len(out), hi - lo + 1), dtype=np.complex128)
    for row, (c_lo, c, _, _) in zip(block, out):
        row[c_lo - lo:c_lo - lo + c.size] = c
    return S.Rows(lo, block, np.array([st for *_, st in out], dtype=np.int64).reshape(-1, 2),
                  np.array([r for _, _, r, _ in out], float).reshape(-1, 2))


def block_fields(rows: S.Rows) -> tuple:
    """Every field of a block, arrays as (shape, dtype, bytes)."""
    return (type(rows.lo), rows.lo, *((x.shape, x.dtype, x.tobytes()) for x in
            (rows.block, rows.stored, rows.reliable, rows.leads)))


def assert_chain_reads_per_row(a: LaurentSeries, n: int, depth, window):
    """``powers``, ``int_pow`` and ``Rows.chain`` of ``a`` equal the per-row
    path field for field, or raise the error it raises."""
    try:
        want = per_row_block(a, n, *window, depth)
    except WindowUnderflowError as exc:
        with pytest.raises(WindowUnderflowError, match=str(exc)):
            S.Rows.chain(a, n, *window, depth)
    else:
        assert block_fields(S.Rows.chain(a, n, *window, depth)) == block_fields(want)
    if n >= 0 or depth is not None:
        want = [fields(r) for r in per_row_powers(a, n, depth)]
        assert [fields(r) for r in S.powers(a, n, depth)] == want
        if n:
            assert fields(S.int_pow(a, n, depth)) == want[-1]


@settings(max_examples=300, deadline=None)
@given(power_case(), st.integers(-30, 10), st.integers(0, 30))
def test_chain_blocks_equal_the_per_row_path(case, lo, width):
    """Blocks, stored windows, reliable edges and leads of `Rows.chain`, and
    the series of `powers` and `int_pow`, are the per-row path's, whatever
    was asked of the germ before (the same germ serves three windows)."""
    a, n, depth = case
    for window in ((lo, lo + width), (lo - width, lo), (lo - 40, lo + 40)):
        assert_chain_reads_per_row(a, n, depth, window)


@pytest.mark.parametrize("name", ["fix_sig", "fix_rand", "fix_id"])
def test_fixture_chain_blocks_equal_the_per_row_path(request, name):
    """Both germs of a fixture, both signs, exact and truncated, rows their
    depth cuts short, zero-padded copies, in interleaved request orders."""
    pair = request.getfixturevalue(name)
    germs = [pair.g, pair.f] + [LaurentSeries(a.lo_exp, a.coeffs, a.flavor, edge) for a, edge in
                                ((pair.g, (-pair.order - 4, S.POS_INF)),
                                 (pair.f, (S.NEG_INF, pair.order + 4)))]
    germs += [LaurentSeries(a.lo_exp - 5, S.dense(a, a.lo_exp - 5, a.hi_exp + 5), a.flavor)
              for a in (pair.g, pair.f)]
    asks = [(9, 40, (-30, 20)), (-4, 90, (-20, 30)), (12, 15, (-60, 60)), (6, None, (-5, 5)),
            (-9, 3, (-12, 12)), (-12, None, (-40, 8)), (1, 0, (0, 0)), (-1, 2, (-3, 3)),
            (0, 4, (-2, 2))]
    for a in germs:
        for order in (asks, asks[::-1], asks[::2] + asks[1::2]):
            b = LaurentSeries(a.lo_exp, a.coeffs, a.flavor, a.reliable)
            for n, depth, window in order:
                assert_chain_reads_per_row(b, n, depth, window)
