"""Reflection-subfamily checks and the boundary Green kernel identity."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtoda.conformal_pair import from_coefficients, random_pair, sigma_conjugate
from dtoda.coords import time_variables, toda_coordinates
from dtoda.grunsky import grunsky_table
from dtoda.hamiltonian import HamiltonianH
from dtoda.reductions import (
    SigmaAdmissibilityError,
    green_coefficients,
    green_identity_check,
    real_subspace_check,
    require_sigma_admissible,
    sigma_coordinate_check,
)
from dtoda.series import AT_INFINITY, LaurentSeries, SeriesError

H_SYM1 = HamiltonianH.of((1, 1, 1.0))
H_SYM2 = HamiltonianH.of((2, 2, 1.0))
H_SYM_CROSS = HamiltonianH.of((2, 1, 0.25j), (1, 2, -0.25j))
H_ASYM = HamiltonianH.of((2, 1, 1.0), (1, 2, 0.3))

G_DISC = LaurentSeries.from_pairs({1: 1.0}, AT_INFINITY)
G_ELLIPSE = LaurentSeries.from_pairs({1: 1.0, -1: 0.1}, AT_INFINITY)
G_STRETCHED = LaurentSeries.from_pairs({1: 1.2, -1: 0.1}, AT_INFINITY)
G_COMPLEX = LaurentSeries.from_pairs({1: 1.0, -2: 0.05j}, AT_INFINITY)


def _inv_quad(x, b, c):
    """Inverse of b*w + c/w on the G ~ x/b branch (root of b w^2 - xw + c)."""
    s = np.sqrt(x * x - 4.0 * b * c)
    if np.real(s * np.conj(x)) < 0:
        s = -s
    return (x + s) / (2.0 * b)


# ---------------------------------------------------------------------------
# admissibility of the potential


def test_admissible_accepts_partnered_terms():
    require_sigma_admissible(H_SYM1)
    require_sigma_admissible(H_SYM2)
    require_sigma_admissible(H_SYM_CROSS)


def test_admissible_rejects_missing_partner(reflection):
    with pytest.raises(SigmaAdmissibilityError, match="admissible"):
        require_sigma_admissible(H_ASYM)
    # a diagonal term is its own partner, so its coefficient must be real
    with pytest.raises(SigmaAdmissibilityError):
        require_sigma_admissible(HamiltonianH.of((1, 1, 0.5j)))
    snap, table = reflection(G_ELLIPSE, H_ASYM, 4)
    with pytest.raises(SigmaAdmissibilityError):
        sigma_coordinate_check(snap, H_ASYM)
    with pytest.raises(SigmaAdmissibilityError):
        green_identity_check(table, G_ELLIPSE, H_ASYM)


# ---------------------------------------------------------------------------
# green kernel: closed-form anchors


def hermitian_defect(kernel) -> float:
    """max |K - K^H|: the residue of the kernel's Hermitian relation."""
    return float(np.max(np.abs(kernel - kernel.conj().T)))


def test_green_disc_closed_form():
    # For g = w the regularized kernel is -log(1 - 1/(z1*conj(z2))) taken
    # real-part-wise: entries 1/n on the diagonal, nothing anywhere else.
    kernel = green_coefficients(G_DISC, 6)
    for n in range(1, 7):
        assert kernel[n, n] == 1.0 / n
    for m in range(7):
        for n in range(7):
            if m != n:
                assert kernel[m, n] == 0.0
    assert kernel[0, 0] == 0.0
    assert hermitian_defect(kernel) == 0.0


def test_green_kernel_is_a_read_only_array():
    kernel = green_coefficients(G_ELLIPSE, 4)
    assert kernel.shape == (5, 5) and kernel.dtype == np.complex128
    assert not kernel.flags.writeable
    with pytest.raises(ValueError):
        kernel[0, 0] = 1.0


def test_green_order_bound():
    with pytest.raises(SeriesError):
        green_coefficients(G_DISC, 0)


def test_green_pointwise_closed_form():
    # b*w + c/w inverts by the quadratic formula, so the conjugated log
    # kernel can be evaluated directly and compared with the summed
    # expansion; this pins sign and value of every stored entry at once.
    for b in (1.0, 1.2):
        g = LaurentSeries.from_pairs({1: b, -1: 0.1}, AT_INFINITY)
        kernel = green_coefficients(g, 14)
        const_mixed = 2.0 * cmath.log(1.0 / b)
        for (z1, z2) in [(3.6 + 0.8j, 3.9 - 1.0j), (-3.5 + 1.7j, 4.1 + 0.4j)]:
            y = np.conj(z2)
            direct = np.log((_inv_quad(z1, b, 0.1) * np.conj(_inv_quad(z2, b, 0.1)) - 1.0)
                            / (z1 * y))
            series = const_mixed + sum(
                -kernel[m, n] * z1 ** (-m) * y ** (-n)
                for m in range(15) for n in range(15) if m or n)
            assert abs(direct - series) < 1e-10


def test_green_constant_entry_tracks_leading_coefficient():
    # kernel(0,0) = log b: half the second t0-derivative of log tau, whose
    # value 2*log b is pinned independently by the rk4 central difference of
    # v_0 in test_flows.py::test_v0_slope_matches_rk4_central_differences;
    # the large-argument limit of the unconjugated log ratio gives the same
    # constant from the closed-form inverse.
    kernel = green_coefficients(G_STRETCHED, 8)
    assert abs(kernel[0, 0] - cmath.log(1.2)) < 1e-14
    z1, z2 = 1e6 + 2e5j, -7e5 + 4e5j
    holo_limit = np.log((_inv_quad(z1, 1.2, 0.1) - _inv_quad(z2, 1.2, 0.1)) / (z1 - z2))
    mixed_limit = 2.0 * cmath.log(1.0 / 1.2)
    assert abs((holo_limit - mixed_limit) - kernel[0, 0]) < 1e-12


def test_green_dual_path_vs_lattice_table():
    kernel = green_coefficients(G_ELLIPSE, 8)
    pair = sigma_conjugate(G_ELLIPSE, order=24)
    table = grunsky_table(pair, 8)
    assert abs(kernel[1, 1] - table.entry(1, -1)) <= 1e-10
    assert abs(kernel[2, 2] - table.entry(2, -2)) <= 1e-10
    assert abs(kernel[1, 0] - table.entry(1, 0)) <= 1e-10
    assert abs(kernel[0, 1] + table.entry(-1, 0)) <= 1e-10


def test_green_hermitian_structure():
    assert hermitian_defect(green_coefficients(G_ELLIPSE, 8)) <= 1e-12
    assert hermitian_defect(green_coefficients(G_COMPLEX, 8)) <= 1e-12
    assert hermitian_defect(green_coefficients(G_STRETCHED, 8)) <= 1e-12


# ---------------------------------------------------------------------------
# green identity: kernel vs half Hessian of log tau


def test_green_identity_disc_exact(reflection):
    _, table = reflection(G_DISC, H_SYM1, 6)
    assert green_identity_check(table, G_DISC, H_SYM1) == 0.0


def test_green_identity_perturbative(reflection):
    for g in (G_ELLIPSE, G_COMPLEX):
        _, table = reflection(g, H_SYM1, 8)
        assert green_identity_check(table, g, H_SYM1) <= 1e-10


def test_green_identity_potential_independent(reflection):
    _, table = reflection(G_ELLIPSE, H_SYM1, 8)
    d1 = green_identity_check(table, G_ELLIPSE, H_SYM1)
    d2 = green_identity_check(table, G_ELLIPSE, H_SYM2)
    d3 = green_identity_check(table, G_ELLIPSE, H_SYM_CROSS)
    assert d1 <= 1e-10 and d2 <= 1e-10 and d3 <= 1e-10
    assert d1 == d2 == d3


def test_green_identity_leading_coefficient_discriminates(reflection):
    # With b != 1 the constant block no longer vanishes, so this case
    # separates the -2*b00 resolution of the t0 Hessian entry from the
    # opposite sign (which would leave a 2*log(1.2) ~ 0.36 defect).
    _, table = reflection(G_STRETCHED, H_SYM1, 8)
    assert green_identity_check(table, G_STRETCHED, H_SYM1) <= 1e-10


# ---------------------------------------------------------------------------
# reflection reality of the coordinates


def test_sigma_coordinates_disc_exact(reflection):
    snap, _ = reflection(G_DISC, H_SYM1, 6)
    assert sigma_coordinate_check(snap, H_SYM1) == 0.0


def test_sigma_coordinates_ellipse(reflection):
    for h in (H_SYM1, H_SYM2):
        snap, _ = reflection(G_ELLIPSE, h, 8)
        assert sigma_coordinate_check(snap, h) <= 1e-10


def test_reflection_checks_take_a_g_deeper_than_their_order(reflection):
    # g reaches w**-10 and the checks read 4 modes of a pair built at g's
    # own depth, which its canonical window must hold
    g = LaurentSeries.from_pairs({1: 1.0, **{-k: 0.4 ** (k + 1) for k in range(1, 11)}},
                                 AT_INFINITY)
    snap, table = reflection(g, H_SYM1, 4, depth=10)
    assert snap.order == table.order == 4
    assert sigma_coordinate_check(snap, H_SYM1) <= 1e-10
    assert green_identity_check(table, g, H_SYM1) <= 1e-10


def test_sigma_fixture_area_time(fix_sig):
    # |w| = 1 maps to the ellipse with semi-axes 1.1 and 0.9, so the
    # area-normalized zeroth time is 1.1 * 0.9 = 0.99.
    t, _, _ = time_variables(fix_sig, H_SYM1, 1)
    assert abs(t[0] - 0.99) < 1e-12


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sigma_reality_random_maps(reflection, seed):
    rng = np.random.default_rng(seed)

    def draw(scale):
        return scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    g = LaurentSeries.from_pairs(
        {1: 1.0, 0: draw(0.1), -1: draw(0.1), -2: draw(0.05)}, AT_INFINITY)
    snap, _ = reflection(g, H_SYM1, 4)
    assert sigma_coordinate_check(snap, H_SYM1) <= 1e-10
    assert hermitian_defect(green_coefficients(g, 4)) <= 1e-12


# ---------------------------------------------------------------------------
# real-coefficient subspace


def test_real_subspace_identity_exact(fix_id):
    assert real_subspace_check(toda_coordinates(fix_id, H_SYM1, 6)) == 0.0


def test_real_subspace_random_real_pair():
    pair = random_pair(seed=11, decay=0.25, order=12, real=True)
    assert real_subspace_check(toda_coordinates(pair, H_SYM1, 8)) <= 1e-11
    assert real_subspace_check(toda_coordinates(pair, H_SYM2, 8)) <= 1e-11


def test_real_subspace_negative_control():
    pair = random_pair(seed=7, decay=0.3, order=12)
    assert real_subspace_check(toda_coordinates(pair, H_SYM1, 8)) > 1e-8
