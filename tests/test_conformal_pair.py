"""Tests for pair construction, the reflection subfamily, and random pairs."""

import mpmath
import numpy as np
import pytest

from dtoda import conformal_pair as CP
from dtoda import series as S
from dtoda.conformal_pair import ConformalPair, NormalizationError
from dtoda.series import AT_INFINITY, AT_ZERO, LaurentSeries, SeriesError


def test_identity_pair_valid():
    p = CP.from_coefficients({1: 1.0}, {1: 1.0}, order=4)
    assert p.b == 1.0 and p.a1 == 1.0
    assert p.g.coeff(1) == 1.0 and p.f.coeff(1) == 1.0
    assert p.g.flavor == AT_INFINITY and p.f.flavor == AT_ZERO


def test_scaled_pair_valid():
    p = CP.from_coefficients({1: 2.0}, {1: 0.5}, order=4)
    assert p.b == 2.0 and p.a1 == 0.5


def test_normalization_violation():
    with pytest.raises(NormalizationError, match="a1·b ≠ 1"):
        CP.from_coefficients({1: 2.0}, {1: 1.0}, order=4)


def test_constant_term_in_f_rejected():
    with pytest.raises(NormalizationError, match="f\\(0\\) ≠ 0"):
        CP.from_coefficients({1: 1.0}, {0: 0.3, 1: 1.0}, order=4)


def test_quadratic_term_in_g_rejected():
    with pytest.raises(SeriesError):
        CP.from_coefficients({1: 1.0, 2: 0.1}, {1: 1.0}, order=4)


def test_pair_is_immutable():
    p = CP.from_coefficients({1: 1.0}, {1: 1.0}, order=4)
    with pytest.raises(Exception):
        p.order = 7


def test_canonical_windows():
    p = CP.from_coefficients({1: 1.0, -2: 0.05}, {1: 1.0, 3: 0.02}, order=6)
    assert (p.g.lo_exp, p.g.hi_exp) == (-6, 1)
    assert (p.f.lo_exp, p.f.hi_exp) == (1, 7)
    assert p.g.coeff(-2) == 0.05 and p.f.coeff(3) == 0.02


def test_g_zero_padding_past_window_accepted():
    # exact zeros below -order are padding, as zeros of f below exponent 1
    p = CP.from_coefficients({1: 1.0, -2: 0.05, -9: 0.0}, {1: 1.0}, order=6)
    assert (p.g.lo_exp, p.g.hi_exp) == (-6, 1)
    assert p.g.coeff(-2) == 0.05


def test_g_nonzero_tail_past_window_rejected():
    with pytest.raises(SeriesError, match="exponent -9 outside order-6 window"):
        CP.from_coefficients({1: 1.0, -9: 1e-3}, {1: 1.0}, order=6)


def test_sigma_conjugate_narrows_a_zero_padded_g():
    # a reflection pair at order 32 re-conjugated at order 24 (the Green
    # identity check does this) drops only zero padding
    wide = CP.sigma_conjugate(LaurentSeries.from_pairs({1: 1.0, -1: 0.1}, AT_INFINITY),
                              order=32)
    narrow = CP.sigma_conjugate(wide.g, order=24)
    assert narrow.g.lo_exp == -24 and narrow.g.coeff(-1) == 0.1


# ---------------------------------------------------------------------------
# reflection subfamily


def test_sigma_identity_fixed_point():
    g = S.monomial(1, 1.0, AT_INFINITY)
    p = CP.sigma_conjugate(g, order=6)
    assert p.f.coeff(1) == 1.0
    assert all(p.f.coeff(k) == 0.0 for k in range(2, 8))


def test_sigma_geometric_oracle():
    # g = w + 0.1/w -> f = w/(1 + 0.1 w^2) = w - 0.1 w^3 + 0.01 w^5 - ...
    g = LaurentSeries.from_pairs({1: 1.0, -1: 0.1}, AT_INFINITY)
    p = CP.sigma_conjugate(g, order=10)
    for j in range(6):
        want = (-0.1) ** j
        assert abs(p.f.coeff(2 * j + 1) - want) < 1e-14
        if 2 * j + 2 <= 11:
            assert p.f.coeff(2 * j + 2) == 0.0


def test_sigma_complex_tail_conjugated():
    # g = w + 0.1i/w -> f = w/(1 - 0.1i w^2) = w + 0.1i w^3 - 0.01 w^5 ...
    g = LaurentSeries.from_pairs({1: 1.0, -1: 0.1j}, AT_INFINITY)
    p = CP.sigma_conjugate(g, order=8)
    assert abs(p.f.coeff(3) - 0.1j) < 1e-14
    assert abs(p.f.coeff(5) - (0.1j) ** 2) < 1e-14


def test_sigma_image_times_its_reflected_denominator_is_w():
    # f = w / p with p(w) = w conj(g(1/conj(w))), so f p = w on f's window
    rng = np.random.default_rng(4)
    coeffs = {1: 1.2, 0: 0.1 + 0.05j}
    for k in range(1, 7):
        coeffs[-k] = 0.3 ** (k + 1) * complex(rng.normal(), rng.normal())
    g = LaurentSeries.from_pairs(coeffs, AT_INFINITY)
    order = 10
    f = CP.sigma_image(g, order)
    p = LaurentSeries.from_pairs({1 - k: np.conj(c) for k, c in coeffs.items()}, AT_ZERO)
    prod = S.mul(f, p)
    diff = max(abs(prod.coeff(k) - (k == 1)) for k in range(1, order + 2))
    assert diff < 1e-12
    with pytest.raises(SeriesError, match="AtInfinity"):
        CP.sigma_image(f, order)


@pytest.mark.parametrize("coeffs", [
    {1: 1.0, -1: 0.1},                                             # the sigma fixture
    {1: 1.0, 0: 0.05, -1: 0.12, -2: -0.04},                        # d = 2
    {1: 1.1, 0: -0.03, -1: 0.1, -2: 0.05j, -3: -0.03},             # d = 3
    {1: 1.0, -1: 0.8},                                             # a pole at 1.118
])
def test_sigma_image_matches_a_40_digit_recurrence(coeffs):
    # f = w/p, p = sum_j p_j w^j with p_j = conj(g_{1-j}): the coefficients
    # q_k of 1/p follow p_0 q_k = -sum_{j>=1} p_j q_{k-j}
    order = 16
    f = CP.sigma_conjugate(LaurentSeries.from_pairs(coeffs, AT_INFINITY), order).f
    assert f.reliable == (S.NEG_INF, S.POS_INF) and f.hi_exp >= order + 1
    with mpmath.workdps(40):
        p = [mpmath.conj(mpmath.mpc(coeffs.get(1 - j, 0))) for j in range(2 - min(coeffs))]
        q = [1 / p[0]]
        for k in range(1, max(8 * order, f.hi_exp) + 1):
            q.append(-mpmath.fsum(p[j] * q[k - j] for j in range(1, min(k, len(p) - 1) + 1))
                     / p[0])
        top = max(abs(c) for c in q)
        worst = max(abs(mpmath.mpc(f.coeff(k + 1)) - q[k]) for k in range(8 * order))
        assert worst <= 2.0 ** -52 * top  # an ulp of the largest coefficient
        # the first coefficient not stored is below rounding
        assert abs(q[f.hi_exp]) < 2.0 ** -52 * abs(q[0])


@pytest.mark.parametrize("u, radius", [(2.0, "0.707107"), (1.0, "1"), (0.99, "1.00504")])
def test_sigma_image_rejects_a_pole_in_or_near_the_disc(u, radius):
    # g = w + u/w reflects to f = w/(1 + u w^2), with poles at |w| = u**-1/2
    g = LaurentSeries.from_pairs({1: 1.0, -1: u}, AT_INFINITY)
    with pytest.raises(SeriesError, match=rf"pole at \|w\| = {radius}, inside \|w\| = 1.0415 "):
        CP.sigma_conjugate(g, order=8)


def test_sigma_complex_b_fails_normalization():
    g = LaurentSeries.from_pairs({1: 1.0 + 0.2j, -1: 0.05}, AT_INFINITY)
    with pytest.raises(NormalizationError,
                       match=r"real leading coefficient b, got b = \(1\+0\.2j\)"):
        CP.sigma_conjugate(g, order=6)


# ---------------------------------------------------------------------------
# random pairs


def test_random_pair_deterministic():
    p1 = CP.random_pair(seed=7, decay=0.3, order=16)
    p2 = CP.random_pair(seed=7, decay=0.3, order=16)
    assert np.array_equal(p1.g.coeffs, p2.g.coeffs)
    assert np.array_equal(p1.f.coeffs, p2.f.coeffs)


def test_random_pair_seeds_differ():
    p1 = CP.random_pair(seed=7, decay=0.3, order=8)
    p2 = CP.random_pair(seed=8, decay=0.3, order=8)
    assert not np.array_equal(p1.g.coeffs, p2.g.coeffs)


def test_random_pair_decay_zero_is_linear():
    p = CP.random_pair(seed=3, decay=0.0, order=8)
    assert p.b == 1.0
    assert all(p.g.coeff(-k) == 0.0 for k in range(0, 9))
    assert abs(p.f.coeff(1) - 1.0) < 1e-15
    assert all(p.f.coeff(1 + j) == 0.0 for j in range(1, 9))


def test_random_pair_tail_decay_bound():
    p = CP.random_pair(seed=7, decay=0.3, order=16)
    for k in range(1, 17):
        assert abs(p.g.coeff(-k)) <= 0.3**k
        assert abs(p.f.coeff(1 + k)) <= 0.3**k


def test_random_pair_real_mode():
    p = CP.random_pair(seed=5, decay=0.4, order=8, real=True)
    assert float(np.max(np.abs(p.g.coeffs.imag))) == 0.0
    assert float(np.max(np.abs(p.f.coeffs.imag))) == 0.0


def test_random_pair_normalized_exactly():
    p = CP.random_pair(seed=12, decay=0.25, order=8)
    assert abs(p.a1 * p.b - 1.0) < 1e-15
