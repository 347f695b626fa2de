"""Coordinate-map checks.

Oracles:

* identity pair (g = f = w): every residue collapses to a monomial
  residue done by hand — t_0 = 1, v_0 = -1, all other t_n, v_n zero, and
  tau parts (-1/2, 0, -1/4) summing to -3/4;
* the ellipse-style pair g = w + 0.1/w with its reflected partner has
  f = w/(1 + 0.1 w^2) exactly, giving t_0 = 0.99, t_1 = 0, t_2 = 0.05 by
  hand residue algebra;
* dual-path identities (two contour expressions for t_0, basis expansion
  vs coordinates, Z2 contour vs closed form) are internal consistency
  oracles computed along genuinely different arithmetic paths;
* gauge covariance compares a full recomputation against the closed-form
  shift constants, whose values are winding-number residues.
"""

import numpy as np
import pytest

from dtoda import series as S
from dtoda.conformal_pair import from_coefficients, random_pair
from dtoda.coords import (
    log_tau,
    plemelj_check,
    time_variables,
    toda_coordinates,
    v_zero,
)
from dtoda.hamiltonian import GaugeTerm, HamiltonianH, gauge_shift_constants

H_BASIC = HamiltonianH.of((1, 1, 1.0))
H_LIST = [
    HamiltonianH.of((1, 1, 1.0)),
    HamiltonianH.of((2, 1, 1.0), (1, 2, 0.3)),
    HamiltonianH.of((2, 2, 1.0), (1, 1, -0.25)),
]


def test_identity_pair_coordinates(fix_id):
    t, v, t0_alt = time_variables(fix_id, H_BASIC, 8)
    assert abs(t[0] - 1.0) <= 1e-14
    assert abs(t0_alt - 1.0) <= 1e-14
    for n in range(1, 9):
        assert abs(t[n]) <= 1e-14 and abs(t[-n]) <= 1e-14
        assert abs(v[n]) <= 1e-14 and abs(v[-n]) <= 1e-14
    assert abs(v_zero(fix_id, H_BASIC) - (-1.0)) <= 1e-14


def test_identity_pair_tau_parts(fix_id):
    coords = toda_coordinates(fix_id, H_BASIC, 8)
    z1_part, z2_part, z3_part = coords.z_parts
    assert abs(z1_part - (-0.5)) <= 1e-12
    assert abs(z2_part) <= 1e-12
    assert abs(z3_part - (-0.25)) <= 1e-12
    assert abs(coords.logT - (-0.75)) <= 1e-12
    assert abs(coords.z2_closed) <= 1e-12


def test_sigma_pair_times(fix_sig):
    t, v, _ = time_variables(fix_sig, H_BASIC, 8)
    assert abs(t[0] - 0.99) <= 1e-10
    assert abs(t[1]) <= 1e-10
    assert abs(t[2] - 0.05) <= 1e-10


@pytest.mark.parametrize("h", H_LIST)
def test_t0_dual_formula(fix_id, fix_rand, fix_sig, jouk_pair, h):
    for pair in (fix_id, fix_rand, fix_sig, jouk_pair):
        t, _, t0_alt = time_variables(pair, h, min(8, pair.order))
        assert abs(t[0] - t0_alt) <= 1e-10


def test_gauge_shifted_identity_example(fix_id):
    t, _, _ = time_variables(fix_id, H_BASIC, 4,
                             gauge=(GaugeTerm("z1", 1, 1.0),))
    assert abs(t[1] - 1.0) <= 1e-12
    assert abs(t[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("fixture_name", ["fix_id", "fix_rand"])
def test_gauge_covariance_end_to_end(request, fixture_name):
    pair = request.getfixturevalue(fixture_name)
    order = 8
    gauge = (GaugeTerm("z1", 1, 1.0), GaugeTerm("z2", 2, 0.5 - 0.25j),
             GaugeTerm("z1", -2, 0.75j), GaugeTerm("z2", -1, -0.5))
    t0_map, v0_map, alt0 = time_variables(pair, H_BASIC, order)
    t1_map, v1_map, alt1 = time_variables(pair, H_BASIC, order, gauge=gauge)
    tc, vc, v0c = gauge_shift_constants(gauge, order)
    for n in range(-order, order + 1):
        assert abs((t1_map[n] - t0_map[n]) - tc[n]) <= 1e-10, ("t", n)
        if n:
            assert abs((v1_map[n] - v0_map[n]) - vc[n]) <= 1e-10, ("v", n)
    assert abs(alt1 - alt0) <= 1e-10
    dv0 = v_zero(pair, H_BASIC, gauge=gauge) - v_zero(pair, H_BASIC)
    assert abs(dv0 - v0c) <= 1e-10


def test_plemelj_identity_exact(fix_id):
    assert plemelj_check(fix_id, H_BASIC, 8) <= 1e-14


def test_plemelj_fixtures(fix_rand, fix_sig):
    assert plemelj_check(fix_rand, H_BASIC, 10) <= 1e-10
    assert plemelj_check(fix_sig, HamiltonianH.of((2, 2, 1.0)), 10) <= 1e-10


@pytest.mark.parametrize("h", H_LIST)
def test_z2_contour_matches_closed_form(fix_rand, h):
    coords = toda_coordinates(fix_rand, h, 12)
    assert abs(coords.z_parts[1] - coords.z2_closed) <= 1e-10


def test_z2_closed_form_sigma(fix_sig):
    coords = toda_coordinates(fix_sig, H_BASIC, 12)
    assert abs(coords.z_parts[1] - coords.z2_closed) <= 1e-10


def test_real_subspace_imaginary_parts():
    pair = random_pair(11, 0.25, 12, real=True)
    h = HamiltonianH.of((1, 1, 1.0), (2, 1, 0.3))
    coords = toda_coordinates(pair, h, 10)
    worst = max(
        max(abs(c.imag) for c in coords.t.values()),
        max(abs(c.imag) for c in coords.v.values()),
        abs(coords.v0.imag),
        abs(coords.logT.imag),
    )
    assert worst <= 1e-11


def test_order_exceeding_pair_rejected(fix_id):
    with pytest.raises(ValueError, match="order"):
        time_variables(fix_id, H_BASIC, fix_id.order + 1)


def test_coordinates_deterministic(fix_rand):
    a = toda_coordinates(fix_rand, H_LIST[1], 8)
    b = toda_coordinates(fix_rand, H_LIST[1], 8)
    assert a.t == b.t and a.v == b.v
    assert a.v0 == b.v0 and a.logT == b.logT
