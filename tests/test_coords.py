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

from dtoda import coords as C
from dtoda import plan
from dtoda import series as S
from dtoda.conformal_pair import from_coefficients, random_pair
from dtoda.coords import (
    log_tau,
    plemelj_check,
    time_variables,
    toda_coordinates,
    v_zero,
)
from dtoda.hamiltonian import (
    HamiltonianH, LogObstructionError, MonomialSum, eval_along, gauge_shift_constants,
)

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
    t, _, _ = time_variables(fix_id, H_BASIC + MonomialSum.of((1, 0, 1.0)), 4)
    assert abs(t[1] - 1.0) <= 1e-12
    assert abs(t[0] - 1.0) <= 1e-12


def test_log_tau_of_a_gauged_potential_raises(fix_rand):
    """J is taken from the moments' own potential, and a one-variable term
    has no antiderivative pair inside the monomial algebra."""
    gauged = H_BASIC + MonomialSum.of((1, 0, 1.0))
    t, v, _ = time_variables(fix_rand, gauged, 4)
    with pytest.raises(LogObstructionError, match="log obstruction"):
        C.Moments(fix_rand, gauged, 4).log_tau(t, v, v_zero(fix_rand, gauged))


@pytest.mark.parametrize("fixture_name", ["fix_id", "fix_rand"])
def test_gauge_covariance_end_to_end(request, fixture_name):
    pair = request.getfixturevalue(fixture_name)
    order = 8
    gauge = ((1, 0, 1.0), (0, -2, 0.5 - 0.25j),
             (-2, 0, 0.75j), (0, 1, -0.5))
    t0_map, v0_map, alt0 = time_variables(pair, H_BASIC, order)
    gauged = H_BASIC + MonomialSum.of(*gauge)
    t1_map, v1_map, alt1 = time_variables(pair, gauged, order)
    tc, vc, v0c = gauge_shift_constants(gauge, order)
    for n in range(-order, order + 1):
        assert abs((t1_map[n] - t0_map[n]) - tc[n]) <= 1e-10, ("t", n)
        if n:
            assert abs((v1_map[n] - v0_map[n]) - vc[n]) <= 1e-10, ("v", n)
    assert abs(alt1 - alt0) <= 1e-10
    dv0 = v_zero(pair, gauged) - v_zero(pair, H_BASIC)
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


# ---------------------------------------------------------------------------
# chain-matrix readouts against the residue_mul loops they replaced


def streamed_powers(base, n_max, depth):
    """k -> base**k for |k| <= n_max by unclipped repeated products."""
    inv = S.int_pow(base, -1, depth=depth)
    chain = {0: S.constant(1.0), 1: base, -1: inv}
    for n in range(2, n_max + 1):
        chain[n], chain[-n] = S.mul(chain[n - 1], base), S.mul(chain[1 - n], inv)
    return chain


def moment_series(pair, ms, width):
    """M1 = d1(ms)(g, f) g' and M2 = d2(ms)(g, f) f' on (-width, width)."""
    window = (-width, width)
    return (S.mul(eval_along(ms.d1(), pair, window), pair.g_prime()),
            S.mul(eval_along(ms.d2(), pair, window), pair.f_prime()))


def time_variables_reference(pair, h, order):
    """t, v and t0_alt by one residue_mul per coordinate."""
    ms = h
    width = plan.halfwidth(pair, ms, order)
    m1, m2 = moment_series(pair, ms, width)
    gp = streamed_powers(pair.g, order, width + order + 8)
    fp = streamed_powers(pair.f, order, width + order + 8)
    t, v = {0: m1.residue()}, {}
    for n in range(1, order + 1):
        t[n], v[n] = S.residue_mul(m1, gp[-n]) / n, S.residue_mul(m1, gp[n])
        t[-n], v[-n] = S.residue_mul(m2, fp[n]) / n, S.residue_mul(m2, fp[-n])
    return t, v, -m2.residue()


def plemelj_reference(pair, h, order):
    """The expansion defect by one mul and residue_mul per mode and side."""
    ms = h
    t, v, _ = time_variables_reference(pair, h, order)
    width = plan.halfwidth(pair, ms, order)
    x1 = S.mul(eval_along(ms.d1(), pair, (-width, width)), pair.g)
    x2 = S.scale(S.mul(eval_along(ms.d2(), pair, (-width, width)), pair.f), -1.0)
    gp = streamed_powers(pair.g, order + 1, width + order + 8)
    fp = streamed_powers(pair.f, order + 1, width + order + 8)
    defects = []
    for k in range(-order, order + 1):
        a_k = S.residue_mul(S.mul(x1, gp[-k - 1]), pair.g_prime())
        b_k = S.residue_mul(S.mul(x2, fp[-k - 1]), pair.f_prime())
        want_a, want_b = ((k * t[k], -v[-k]) if k > 0 else (t[0], t[0]) if k == 0
                          else (v[-k], k * t[k]))
        defects += [abs(a_k - want_a), abs(b_k - want_b)]
    return max(defects)


FIXTURE_ORDERS = [("fix_id", 8), ("fix_rand", 16), ("fix_sig", 14)]


@pytest.mark.parametrize("name,order", FIXTURE_ORDERS)
def test_time_variables_match_the_residue_loops(request, name, order):
    pair = request.getfixturevalue(name)
    t, v, alt = time_variables(pair, H_BASIC, order)
    t_ref, v_ref, alt_ref = time_variables_reference(pair, H_BASIC, order)
    assert t.keys() == t_ref.keys() and v.keys() == v_ref.keys()
    assert all(type(z) is complex for z in list(t.values()) + list(v.values()))
    for got, want in [(t[k], t_ref[k]) for k in t] + [(v[k], v_ref[k]) for k in v]:
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
    assert alt == alt_ref


@pytest.mark.parametrize("name,order", FIXTURE_ORDERS)
def test_times_t_matches_one_joint_residue_product(request, name, order):
    """`Moments.times` reads t off the rows g^-1..g^-N and f^1..f^N: its t
    equals, bit for bit, that of `time_variables` and that read off one
    residue product over the joint chains."""
    pair = request.getfixturevalue(name)
    mo = C.Moments(pair, H_BASIC, order)
    t = mo.times[0]
    assert t == time_variables(pair, H_BASIC, order)[0]
    (m1, m2), ns = mo.m, range(1, order + 1)
    rg = S.residue_matrix([m1], S.Rows.of([mo.g_up, mo.g_down]))[0].tolist()
    rf = S.residue_matrix([m2], S.Rows.of([mo.f_up, mo.f_down]))[0].tolist()
    assert [t[n] for n in ns] == [rg[order + n - 1] / n for n in ns]
    assert [t[-n] for n in ns] == [rf[n - 1] / n for n in ns]


@pytest.mark.parametrize("name,order", FIXTURE_ORDERS)
def test_plemelj_matches_the_residue_loops(request, name, order):
    pair = request.getfixturevalue(name)
    got = plemelj_check(pair, H_BASIC, order)
    want = plemelj_reference(pair, H_BASIC, order)
    assert abs(got - want) <= 1e-13 * max(1.0, want)


def test_order_zero_snapshot_keeps_its_values(fix_id, fix_rand):
    """Order 0 has no mode to read: t = {0: t_0}, no v, no Phi/Psi sum."""
    snap = toda_coordinates(fix_id, H_BASIC, 0)
    assert (snap.t, snap.v, snap.v0, snap.logT) == ({0: 1.0}, {}, -1.0, -0.75)
    snap = toda_coordinates(fix_rand, H_BASIC, 0)
    assert list(snap.t) == [0] and snap.v == {}
    assert snap.z_parts[1] == 0 and snap.z2_closed == 0
    # the values of the residue-loop implementation
    for got, want in [(snap.t[0], 1.0343307166607718 + 0.12140017454842218j),
                      (snap.t0_alt, 1.0343307166607718 + 0.1214001745484222j),
                      (snap.v0, -1.0065254758476725 + 0.004375400024309861j),
                      (snap.logT, -0.784581203870591 - 0.12161734458636111j)]:
        assert abs(got - want) <= 1e-14


# ---------------------------------------------------------------------------
# one moment object per snapshot


SNAPSHOT_ORDERS = [("fix_id", 4), ("fix_id", 8), ("fix_id", 10),
                   ("fix_rand", 4), ("fix_rand", 8), ("fix_rand", 16),
                   ("fix_sig", 4), ("fix_sig", 8), ("fix_sig", 14)]


@pytest.mark.parametrize("name,order", SNAPSHOT_ORDERS)
def test_snapshot_equals_the_public_functions(request, name, order):
    pair = request.getfixturevalue(name)
    snap = toda_coordinates(pair, H_BASIC, order)
    t, v, t0_alt = time_variables(pair, H_BASIC, order)
    v0 = v_zero(pair, H_BASIC)
    z1, z2, z3, log_t, z2_closed = log_tau(pair, H_BASIC, t, v, v0)
    assert snap.t == t and snap.v == v
    assert snap.t0_alt == t0_alt and snap.v0 == v0
    assert snap.z_parts == (z1, z2, z3)
    assert snap.logT == log_t and snap.z2_closed == z2_closed


def _count_eval_along(monkeypatch):
    calls = []
    original = C.eval_along

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(C, "eval_along", counted)
    return calls


def test_full_order_snapshot_evaluates_along_the_pair_five_times(monkeypatch, fix_rand):
    calls = _count_eval_along(monkeypatch)
    toda_coordinates(fix_rand, H_BASIC)
    # d1H and d2H once for t, v, v0 and Z2; the potential for v0; J1, J2 for Z3
    assert len(calls) == 5


def test_plemelj_evaluates_along_the_pair_twice(monkeypatch, fix_rand):
    calls = _count_eval_along(monkeypatch)
    plemelj_check(fix_rand, H_BASIC, 8)
    assert len(calls) == 2


def test_order_one_snapshot_with_a_vanishing_phi(fix_sig):
    # v_1 = v_-1 = 0 on the reflected ellipse pair, so Phi(g) and Psi(f) are
    # identically zero: their products with M1, M2 are exact zeros, not
    # window underflows
    one, two = toda_coordinates(fix_sig, H_BASIC, 1), toda_coordinates(fix_sig, H_BASIC, 2)
    assert one.v == {1: 0.0, -1: 0.0}
    assert one.z_parts[1] == one.z2_closed == 0.0
    assert (one.t[0], one.v0) == (two.t[0], two.v0)
    assert (one.z_parts[0], one.z_parts[2]) == (two.z_parts[0], two.z_parts[2])
