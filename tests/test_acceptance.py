"""Acceptance battery: thirteen end-to-end criteria, one test each.

Each test prints a single pass/fail line (visible with ``pytest -s``;
pytest's own PASSED/FAILED column carries the same verdict) and asserts
the criterion at its stated tolerance.  Nothing here is tuned to the
implementation: every expected value is either exact by construction
(identity and Joukowski-inverse fixtures), derived from an independent
oracle, or a residual of an identity that must hold for any correct
implementation.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dtoda import series as S
from dtoda import coords as C
from dtoda import flows as F
from dtoda import grunsky as G
from dtoda import reductions as R
from dtoda import special as SP
from dtoda.hamiltonian import HamiltonianH, MonomialSum, gauge_shift_constants

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

H_STANDARD = HamiltonianH.of((1, 1, 1.0))
H_TWO_TERM = HamiltonianH.of((2, 1, 1.0), (1, 2, 0.3))
H_COMPLEX = HamiltonianH.of((1, 2, 1.0), (2, 2, 0.2 - 0.1j))


def report(criterion: int, label: str, worst: float, tol: float) -> None:
    verdict = "PASS" if worst <= tol else "FAIL"
    print(f"criterion {criterion:2d}: {verdict}  {label}  "
          f"(worst {worst:.3e}, tolerance {tol:.0e})")
    assert worst <= tol


def test_criterion_01_grunsky_symmetry_and_dual_path(fix_rand):
    table = G.grunsky_table(fix_rand, 16)
    dual = G.grunsky_via_inverse(fix_rand, 16)
    worst = max(table.symmetry_defect, G.table_difference(table, dual))
    report(1, "pairing-table symmetry and residue-vs-inversion agreement",
           worst, 1e-10)


def test_criterion_02_identity_fixture_closed_forms(fix_id):
    table = G.grunsky_table(fix_id, 8)
    worst = abs(table.b00)
    for n in range(1, 9):
        worst = max(worst, abs(table.entry(n, -n) - 1.0 / n))
    snap = C.toda_coordinates(fix_id, H_STANDARD)
    worst = max(worst, abs(snap.t[0] - 1.0), abs(snap.v0 + 1.0),
                abs(snap.logT + 0.75))
    report(2, "identity fixture: b(n,-n)=1/n, b00=0, t0=1, v0=-1, "
              "logT=-3/4", worst, 1e-12)


def test_criterion_03_joukowski_inverse_fixture(jouk_pair):
    # table order 6 is the deepest window the Newton-inverted chart
    # certifies at this fixture depth; the two asserted entries sit at
    # orders 1 and 2
    table = G.grunsky_table(jouk_pair, 6)
    worst = max(abs(table.entry(1, 1) - 0.1),
                abs(table.entry(2, 2) - 0.005))
    report(3, "inverse-Joukowski fixture: b(1,1)=0.1, b(2,2)=0.005",
           worst, 1e-10)


def test_criterion_04_time_zero_duality(fix_id, fix_rand, fix_sig,
                                        jouk_pair):
    worst = 0.0
    for pair in (fix_id, fix_rand, fix_sig, jouk_pair):
        for h in (H_STANDARD, H_TWO_TERM, H_COMPLEX):
            t, _v, alt = C.time_variables(pair, h, 8)
            worst = max(worst, abs(t[0] - alt))
    report(4, "t0 from either moment formula, 4 fixtures x 3 potentials",
           worst, 1e-10)


def test_criterion_05_flow_jacobian(fix_rand, context):
    worst = max(F.jacobian_check(context(fix_rand, H_STANDARD), 8),
                F.jacobian_check(context(fix_rand, H_TWO_TERM), 8))
    report(5, "d t_m / d s_n = delta_mn by exact tangents, "
              "|n|,|m| <= 8", worst, 1e-6)


def test_criterion_06_string_equation(fix_id, fix_rand, context):
    worst = max(F.string_check(context(fix_rand, h))
                for h in (H_STANDARD, H_TWO_TERM, H_COMPLEX))
    assert F.string_check(context(fix_id, H_STANDARD)) == 0.0
    report(6, "string equation on the random fixture, 3 potentials "
              "(exactly 0 on identity)", worst, 1e-9)


def test_criterion_07_lax_and_canonical_bracket(fix_rand, context):
    worst = 0.0
    for h in (H_STANDARD, H_TWO_TERM):
        ctx = context(fix_rand, h)
        worst = max(worst, F.canonical_bracket_check(ctx))
        worst = max(worst, max(F.lax_check(ctx, n, 16)
                               for n in (1, -1, 2, -2, 3, -3)))
    report(7, "Lax flow fields vs Poisson brackets, n in {±1,±2,±3}, "
              "and the canonical bracket relation", worst, 1e-8)


def test_criterion_08_tau_identities(fix_rand, context):
    rep = F.tau_gradient_check(context(fix_rand, H_STANDARD), 6)
    snap = C.toda_coordinates(fix_rand, H_STANDARD)
    z2_defect = abs(snap.z_parts[1] - snap.z2_closed)
    worst = max(rep["gradient"], rep["hessian"], rep["v0_t0"])
    report(8, "tau gradient / Hessian / dual-direction identities by exact "
              "tangents (contour vs closed quadratic part "
              f"{z2_defect:.1e} <= 1e-10)", worst, 1e-6)
    assert z2_defect <= 1e-10


def test_criterion_09_gauge_covariance(fix_rand):
    gauge = ((1, 0, 1.0), (0, -2, 1.0))
    order = 8
    t0, v0_map, _ = C.time_variables(fix_rand, H_STANDARD, order)
    gauged = H_STANDARD + MonomialSum.of(*gauge)
    t1, v1_map, _ = C.time_variables(fix_rand, gauged, order)
    t_shift, v_shift, v0_shift = gauge_shift_constants(gauge, order)
    worst = 0.0
    for n in t0:
        worst = max(worst, abs(t1[n] - t0[n] - t_shift.get(n, 0.0)))
    for n in v0_map:
        worst = max(worst, abs(v1_map[n] - v0_map[n] - v_shift.get(n, 0.0)))
    dv0 = C.v_zero(fix_rand, gauged) - C.v_zero(fix_rand, H_STANDARD)
    worst = max(worst, abs(dv0 - v0_shift))
    field_worst = 0.0
    for n in (0, 1, -1, 2, -3):
        plain = F.flow_field(fix_rand, H_STANDARD, n)
        dressed = F.flow_field(fix_rand, gauged, n)
        field_worst = max(
            field_worst,
            S.max_abs_diff_reliable(plain.dg, dressed.dg),
            S.max_abs_diff_reliable(plain.df, dressed.df),
            S.max_abs_diff_reliable(plain.u_series, dressed.u_series))
    report(9, "one-variable monomials shift (t, v, v0) by predicted "
              f"constants (flow fields unchanged, {field_worst:.1e} "
              "<= 1e-12)", worst, 1e-10)
    assert field_worst <= 1e-12


def test_criterion_10_reflection_reduction(fix_sig):
    worst_coord = 0.0
    worst_tau = 0.0
    for mu in (1, 2):
        sp = SP.special_coords(fix_sig, mu, mu)
        assert abs(sp.t[0].imag) <= 1e-12
        for n in range(1, sp.order + 1):
            worst_coord = max(worst_coord,
                              abs(sp.t[-n] + np.conj(sp.t[n])))
        general = C.toda_coordinates(fix_sig, HamiltonianH.of((mu, mu, 1.0)),
                                     sp.order)
        worst_tau = max(worst_tau,
                        abs(SP.special_logtau(sp, mu, mu) - general.logT))
    ellipse = SP.special_coords(fix_sig, 1, 1)
    worst_coord = max(worst_coord, abs(ellipse.t[0] - 0.99),
                      abs(ellipse.t[2] - 0.05))
    assert worst_tau <= 1e-9
    report(10, "reflection fixture: coordinate reality, ellipse values "
               f"t0=0.99 t2=0.05 (tau formula defect {worst_tau:.1e} "
               "<= 1e-9)", worst_coord, 1e-10)


def test_criterion_11_green_kernel_identity(reflection):
    g1 = S.LaurentSeries.from_pairs({1: 1.0, -1: 0.05, -2: 0.02},
                                    S.AT_INFINITY)
    g2 = S.LaurentSeries.from_pairs({1: 1.1, -1: -0.08, -3: 0.03},
                                    S.AT_INFINITY)
    h_b = HamiltonianH.of((2, 2, 1.0), (1, 2, 0.1 + 0.2j),
                          (2, 1, 0.1 - 0.2j))
    worst = 0.0
    for g in (g1, g2):
        _, table = reflection(g, H_STANDARD, 8)
        r_a = R.green_identity_check(table, g, H_STANDARD)
        r_b = R.green_identity_check(table, g, h_b)
        # the identity never evaluates the potential, so the defect is
        # literally the same number for every admissible choice
        assert r_a == r_b
        worst = max(worst, r_a)
    report(11, "Green-kernel vs tau-Hessian table at N=8, two charts, "
               "potential-independent", worst, 1e-10)


def test_criterion_12_monomial_suite(fix_rand):
    worst_identity = 0.0
    worst_deriv = 0.0
    for mu in (1, 2, 3):
        for nu in (1, 2, 3):
            sp = SP.special_coords(fix_rand, mu, nu)
            general = C.toda_coordinates(
                fix_rand, HamiltonianH.of((mu, nu, 1.0)), sp.order)
            worst_identity = max(
                worst_identity,
                SP.nontrivial_identity(sp, mu, nu),
                abs(SP.special_logtau(sp, mu, nu) - general.logT))
            worst_deriv = max(
                worst_deriv,
                SP.generating_identity_check(fix_rand, sp, mu, nu).derivative)
    worst = max(worst_identity, worst_deriv)
    report(12, "monomial-potential suite over exponents {1,2,3}^2: "
               "contour identity, closed-form tau, derivative-form "
               "moment expansion", worst, 1e-9)


def test_criterion_13_verifier_determinism():
    argv = [sys.executable, "-m", "dtoda.cli", "verify",
            str(CONFIGS / "fixture_identity.json")]
    first = subprocess.run(argv, capture_output=True, timeout=300)
    second = subprocess.run(argv, capture_output=True, timeout=300)
    assert first.returncode == 0 and second.returncode == 0
    identical = first.stdout == second.stdout
    print(f"criterion 13: {'PASS' if identical else 'FAIL'}  two verifier "
          f"runs byte-identical ({len(first.stdout)} bytes, "
          "19/19 checks, exit 0)")
    assert identical
    assert b"verify: 19/19 checks passed" in first.stdout
