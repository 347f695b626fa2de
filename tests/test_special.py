"""Closed-form monomial-potential suite: coordinates, tau, identities."""

import numpy as np
import pytest

from dtoda import plan
from dtoda import series as S
from dtoda import special as SP
from dtoda.coords import toda_coordinates
from dtoda.hamiltonian import HamiltonianH
from dtoda.special import (
    generating_identity_check,
    nontrivial_identity,
    special_coords,
    special_logtau,
)

GRID = [(mu, nu) for mu in (1, 2, 3) for nu in (1, 2, 3)]


def test_monomial_case_rejects_zero_exponents(fix_rand):
    with pytest.raises(ValueError, match="nonzero"):
        HamiltonianH.of((0, 1, 1.0))
    with pytest.raises(ValueError, match="nonzero"):
        HamiltonianH.of((2, 0, 1.0))
    # before any window budget is checked
    with pytest.raises(ValueError, match="nonzero"):
        special_coords(fix_rand, 0, 1, 1000)
    with pytest.raises(ValueError, match="nonzero"):
        generating_identity_check(fix_rand, special_coords(fix_rand, 1, 1, 8), 2, 0)


def test_monomial_case_single_unit_term():
    h = HamiltonianH.of((2, 3, 1.0))
    assert h.terms == ((2, 3, 1.0),)


def test_window_budget_precondition(fix_id):
    # order 10 pair: N must satisfy 10 > |mu| + |nu| + N
    with pytest.raises(ValueError, match="window budget"):
        special_coords(fix_id, 1, 1, 8)
    with pytest.raises(ValueError, match="window budget"):
        special_coords(fix_id, 1, 1, 0)
    assert special_coords(fix_id, 1, 1, 7).order == 7


def test_default_order_fills_the_budget(fix_rand):
    assert special_coords(fix_rand, 2, 1).order == 16 - 2 - 1 - 1


def test_identity_fixture_closed_values(fix_id):
    cs = special_coords(fix_id, 1, 1)
    assert cs.t[0] == 1.0
    assert cs.t0_alt == 1.0
    assert cs.v0 == -1.0
    assert cs.logT == -0.75
    assert max(abs(cs.t[n]) for n in cs.t if n != 0) == 0.0
    assert max(abs(c) for c in cs.v.values()) == 0.0


def test_identity_fixture_nontrivial_and_tau(fix_id):
    cs = special_coords(fix_id, 1, 1)
    # both contour evaluations reduce to t0^2 = 1; closed tau = -1/4 - 1/2
    assert nontrivial_identity(cs, 1, 1) == 0.0
    assert special_logtau(cs, 1, 1) == -0.75


def test_identity_fixture_generating(fix_id):
    cs = special_coords(fix_id, 1, 1)
    report = generating_identity_check(fix_id, cs, 1, 1)
    # g^mu f^-nu = 1 and every expansion term vanishes; the integrated
    # right-hand side is 0, so the reported integration offset is the
    # constant 1 itself.
    assert report.residual == 0.0
    assert report.offset == 1.0


def test_special_equals_general_full_budget(fix_rand):
    sp = special_coords(fix_rand, 2, 1)
    gen = toda_coordinates(fix_rand, HamiltonianH.of((2, 1, 1.0)), sp.order)
    assert max(abs(sp.t[k] - gen.t[k]) for k in sp.t) <= 1e-12
    assert max(abs(sp.v[k] - gen.v[k]) for k in sp.v) <= 1e-12
    assert abs(sp.v0 - gen.v0) <= 1e-12
    assert abs(sp.t0_alt - gen.t0_alt) <= 1e-12
    assert abs(sp.logT - gen.logT) <= 1e-12


@pytest.mark.parametrize("mu,nu", GRID)
def test_exponent_grid_residuals(fix_rand, mu, nu):
    sp = special_coords(fix_rand, mu, nu, 8)
    gen = toda_coordinates(fix_rand, HamiltonianH.of((mu, nu, 1.0)), 8)
    assert max(abs(sp.t[k] - gen.t[k]) for k in sp.t) <= 1e-12
    assert max(abs(sp.v[k] - gen.v[k]) for k in sp.v) <= 1e-12
    assert nontrivial_identity(sp, mu, nu) <= 1e-9
    assert abs(special_logtau(sp, mu, nu) - gen.logT) <= 1e-9


def test_generating_identity_random(fix_rand):
    for mu in (1, 2):
        sp = special_coords(fix_rand, mu, mu)
        report = generating_identity_check(fix_rand, sp, mu, mu)
        assert report.residual <= 1e-9
        # integration constant stays near the identity-pair value 1
        assert abs(report.offset - 1.0) < 0.1


def test_derivative_form_over_full_grid(fix_rand):
    # The whole-series forms carry the first dropped expansion term at
    # the reliability edge and degrade toward 1e-8 at (3, 3); the
    # differentiated form is compared only where every retained term is
    # certified and stays three decades tighter across the grid.
    for mu, nu in GRID:
        sp = special_coords(fix_rand, mu, nu)
        report = generating_identity_check(fix_rand, sp, mu, nu)
        assert report.derivative <= 1e-9
        assert report.derivative <= report.residual


def test_sigma_fixture_area_times(fix_sig):
    cs = special_coords(fix_sig, 1, 1)
    # ellipse with semi-axes 1.1, 0.9: t0 = area/pi = 0.99, t2 = 0.05
    assert abs(cs.t[0] - 0.99) <= 1e-12
    assert abs(cs.t0_alt - 0.99) <= 1e-12
    assert abs(cs.t[2] - 0.05) <= 1e-12


@pytest.mark.parametrize("mu", [1, 2])
def test_sigma_tau_formula(fix_sig, mu):
    """On the reflection-symmetric pair the tau sum collapses to real parts.

    t_{-n} = -conj(t_n) and v_{-n} = -conj(v_n) make the paired weights
    combine into 2 Re(t_n v_n); the collapsed sum must still match the
    general assembly.  The mode index stays inside the weight: freezing
    the weight at its n = 1 value misses by ~2e-3 here.
    """
    sp = special_coords(fix_sig, mu, mu)
    gen = toda_coordinates(fix_sig, HamiltonianH.of((mu, mu, 1.0)), sp.order)
    assert max(abs(sp.t[-n] + np.conj(sp.t[n])) for n in range(1, sp.order + 1)) <= 1e-10
    assert abs(np.imag(sp.t[0])) <= 1e-12
    assert abs(special_logtau(sp, mu, mu) - gen.logT) <= 1e-9
    sig_form = -sp.t[0] ** 2 / (4.0 * mu) + 0.5 * sp.t[0] * sp.v0
    for n in range(1, sp.order + 1):
        sig_form += (1.0 - n / (2.0 * mu)) * np.real(sp.t[n] * sp.v[n])
    assert abs(sig_form - gen.logT) <= 1e-9
    frozen = -sp.t[0] ** 2 / (4.0 * mu) + 0.5 * sp.t[0] * sp.v0
    for n in range(1, sp.order + 1):
        frozen += (1.0 - 1.0 / (2.0 * mu)) * np.real(sp.t[n] * sp.v[n])
    assert abs(frozen - gen.logT) > 1e-4


def test_nontrivial_identity_sigma(fix_sig):
    for mu, nu in [(1, 1), (2, 2), (2, 3)]:
        sp = special_coords(fix_sig, mu, nu, 8)
        assert nontrivial_identity(sp, mu, nu) <= 1e-9


def special_reference(pair, mu, nu, order):
    """t, v and t0_alt of the monomial case by one residue_mul each."""
    gp, fp = SP._rows(pair, mu, nu, order)
    g_side = S.mul(fp[-nu], pair.g_prime())
    f_side = S.mul(gp[mu], pair.f_prime())
    t = {0: mu * S.residue_mul(gp[mu - 1], g_side)}
    t0_alt = nu * S.residue_mul(fp[-nu - 1], f_side)
    v = {}
    for n in range(1, order + 1):
        t[n] = (mu / n) * S.residue_mul(gp[mu - n - 1], g_side)
        t[-n] = (-nu / n) * S.residue_mul(fp[-nu + n - 1], f_side)
        v[n] = mu * S.residue_mul(gp[mu + n - 1], g_side)
        v[-n] = -nu * S.residue_mul(fp[-nu - n - 1], f_side)
    return t, v, t0_alt


@pytest.mark.parametrize("name", ["fix_id", "fix_rand", "fix_sig"])
@pytest.mark.parametrize("mu,nu", [(1, 1), (2, 1), (1, -2), (3, 3)])
def test_special_coords_match_the_residue_loops(request, name, mu, nu):
    pair = request.getfixturevalue(name)
    order = pair.order - abs(mu) - abs(nu) - 1
    t_ref, v_ref, alt_ref = special_reference(pair, mu, nu, order)
    sp = special_coords(pair, mu, nu, order)
    assert sp.t.keys() == t_ref.keys() and sp.v.keys() == v_ref.keys()
    pairs = [(sp.t[k], t_ref[k]) for k in sp.t] + [(sp.v[k], v_ref[k]) for k in sp.v]
    for got, want in pairs + [(sp.t0_alt, alt_ref)]:
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("name", ["fix_sig", "fix_rand"])
def test_rows_are_the_int_pow_rows_of_the_chains(request, name):
    """Every row of `_rows` is `int_pow` of the same power and depth: the same
    reliable edges, the same coefficient bits on `int_pow`'s stored window,
    and zeros past it (a row its depth cuts short is stored out to the
    window's end)."""
    pair, mu, nu = request.getfixturevalue(name), 2, 1
    order = plan.monomial_order(pair, mu, nu)
    depth = plan.halfwidth(pair, HamiltonianH.of((mu, nu, 1.0)), order)
    for base, rows in zip((pair.g, pair.f), SP._rows(pair, mu, nu, order)):
        for k, got in rows.items():
            want = S.int_pow(base, k, depth)
            assert got.reliable == want.reliable, k
            lo, hi = min(got.lo_exp, want.lo_exp), max(got.hi_exp, want.hi_exp)
            full = S.dense(got, lo, hi)
            inside = slice(want.lo_exp - lo, want.hi_exp - lo + 1)
            assert full[inside].tobytes() == want.coeffs.tobytes(), k
            full[inside] = 0
            assert not full.any(), k
