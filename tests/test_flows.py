"""Flow-field construction, stepping, and the dynamical identity checks."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtoda import flows
from dtoda import plan
from dtoda import series as S
from dtoda.cli import load_config
from dtoda.conformal_pair import from_coefficients, random_pair
from dtoda.hamiltonian import GaugeTerm, HamiltonianH
from dtoda.coords import Moments, time_variables
from dtoda.flows import (
    ChartError,
    canonical_bracket_check,
    flow_field,
    jacobian_check,
    lax_check,
    step,
    string_check,
    tau_gradient_check,
    u_field,
)

H_BASIC = HamiltonianH.of((1, 1, 1.0))
H_LIST = [
    HamiltonianH.of((1, 1, 1.0)),
    HamiltonianH.of((2, 1, 1.0), (1, 2, 0.3)),
    HamiltonianH.of((2, 2, 1.0), (1, 1, -0.25)),
]

GAUGE = (
    GaugeTerm("z1", 1, 1.0),
    GaugeTerm("z2", 2, 0.5 - 0.25j),
    GaugeTerm("z1", -2, 0.75j),
    GaugeTerm("z2", -1, -0.5),
)


def same_series(a, b):
    return S.max_abs_diff_reliable(a, b)


# ---------------------------------------------------------------------------
# the u functions on the identity pair, by hand


def test_u_field_identity_examples(fix_id):
    # g = f = w, mixed partial along the pair is -w^-2, g'f' = 1.
    u0 = u_field(fix_id, H_BASIC, 0)  # -(1/w)/(-w^-2) = w
    assert same_series(u0, S.monomial(1, 1.0)) == 0.0
    u1 = u_field(fix_id, H_BASIC, 1)  # -(1)/(-w^-2) = w^2
    assert same_series(u1, S.monomial(2, 1.0)) == 0.0
    # index -1: polynomial part of f^-1 is w^-1, derivative -w^-2, so
    # u_-1 = -(-w^-2)/(-w^-2) = -1.  The sign is pinned independently by
    # the difference-quotient oracle in test_direction_minus_one_quotient.
    um1 = u_field(fix_id, H_BASIC, -1)
    assert same_series(um1, S.constant(-1.0)) == 0.0


def test_direction_minus_one_quotient(fix_id):
    # Brute force: moving along direction -1 must advance t_{-1} at unit
    # rate.  For g = w - eps, f = w one computes t_{-1} = eps directly,
    # which requires dg = -1 (a field +1 would give rate -1).
    eps = 1e-6
    tp, _, _ = time_variables(step(fix_id, H_BASIC, -1, +eps), H_BASIC, 2)
    tm, _, _ = time_variables(step(fix_id, H_BASIC, -1, -eps), H_BASIC, 2)
    assert abs((tp[-1] - tm[-1]) / (2 * eps) - 1.0) < 1e-9


def test_flow_field_identity_split(fix_id):
    ff0 = flow_field(fix_id, H_BASIC, 0)
    assert same_series(ff0.dg, S.monomial(1, 0.5)) == 0.0
    assert same_series(ff0.df, S.monomial(1, -0.5)) == 0.0
    ff1 = flow_field(fix_id, H_BASIC, 1)
    assert same_series(ff1.dg, S.zero()) == 0.0
    assert same_series(ff1.df, S.monomial(2, -1.0)) == 0.0
    ffm = flow_field(fix_id, H_BASIC, -1)
    assert same_series(ffm.dg, S.constant(-1.0)) == 0.0
    assert same_series(ffm.df, S.zero()) == 0.0


def test_split_consistency(fix_rand):
    # dg/g' - df/f' = u exactly, i.e. dg f' - df g' = u g' f'.
    gp, fp = fix_rand.g_prime(), fix_rand.f_prime()
    for n in (-3, 0, 2):
        ff = flow_field(fix_rand, H_LIST[1], n)
        lhs = S.sub(S.mul(ff.dg, fp), S.mul(ff.df, gp))
        rhs = S.mul(S.mul(gp, fp), ff.u_series)
        assert same_series(lhs, rhs) < 1e-10


def test_leading_variation_cancels(fix_rand):
    # d log a1 = -d log b keeps a1 b = 1 to first order.
    for n in (-2, 0, 1, 3):
        ff = flow_field(fix_rand, H_BASIC, n)
        assert abs(ff.df.coeff(1) / fix_rand.a1 + ff.dg.coeff(1) / fix_rand.b) < 1e-13


def test_flow_field_gauge_invariant(fix_rand):
    # One-variable potential terms never reach the mixed second partial.
    for n in (-2, 0, 1):
        plain = flow_field(fix_rand, H_LIST[1], n)
        gauged = flow_field(fix_rand, H_LIST[1], n, gauge=GAUGE)
        assert same_series(plain.dg, gauged.dg) <= 1e-12
        assert same_series(plain.df, gauged.df) <= 1e-12
        assert same_series(plain.u_series, gauged.u_series) <= 1e-12


# ---------------------------------------------------------------------------
# stepping


def test_step_zero_eps_is_identity(fix_rand):
    out = step(fix_rand, H_BASIC, 2, 0.0)
    assert same_series(out.g, fix_rand.g) == 0.0
    assert same_series(out.f, fix_rand.f) == 0.0


def test_step_identity_direction_one(fix_id):
    # field (dg, df) = (0, -w^2): f gains -eps w^2, g is untouched.
    eps = 1e-5
    out = step(fix_id, H_BASIC, 1, eps)
    assert same_series(out.g, fix_id.g) == 0.0
    diff = S.sub(out.f, fix_id.f)
    assert abs(diff.coeff(2) + eps) < 1e-18
    assert same_series(S.sub(diff, S.monomial(2, diff.coeff(2))), S.zero()) < 1e-15


def test_step_euler_reversibility(fix_rand):
    eps = 1e-5
    forth = step(fix_rand, H_LIST[1], 2, +eps)
    back = step(forth, H_LIST[1], 2, -eps)
    assert same_series(back.g, fix_rand.g) < 1e-8
    assert same_series(back.f, fix_rand.f) < 1e-8


def test_step_rk4_reversibility(fix_rand):
    eps = 1e-3
    forth = step(fix_rand, H_BASIC, 1, +eps, method="rk4")
    back = step(forth, H_BASIC, 1, -eps, method="rk4")
    assert same_series(back.g, fix_rand.g) < 1e-10
    assert same_series(back.f, fix_rand.f) < 1e-10


def test_step_rejects_unknown_method(fix_rand):
    with pytest.raises(ValueError):
        step(fix_rand, H_BASIC, 1, 1e-5, method="midpoint")


def test_step_large_eps_leaves_chart(fix_rand):
    with pytest.raises(ChartError):
        step(fix_rand, H_BASIC, 0, 0.5)


def test_u_field_denominator_zero_on_circle():
    # g' = 1 - w^-2 vanishes at w = +-1.
    pair = from_coefficients({1: 1.0, -1: 1.0}, {1: 1.0}, 4)
    with pytest.raises(S.CircleZeroError):
        u_field(pair, H_BASIC, 0)


# ---------------------------------------------------------------------------
# straightening: dt_m along direction n is delta_{nm}


def test_jacobian_single_entry_identity(fix_id):
    eps = 1e-5
    tp, _, _ = time_variables(step(fix_id, H_BASIC, 1, +eps), H_BASIC, 2)
    tm, _, _ = time_variables(step(fix_id, H_BASIC, 1, -eps), H_BASIC, 2)
    assert abs((tp[1] - tm[1]) / (2 * eps) - 1.0) < 1e-7


def test_jacobian_identity_pair(fix_id, context):
    assert jacobian_check(context(fix_id, H_BASIC), 4) < 1e-6


def test_jacobian_random_pair(fix_rand, context):
    assert jacobian_check(context(fix_rand, H_BASIC), 8) < 1e-6


def test_jacobian_two_term_potential(fix_rand, context):
    assert jacobian_check(context(fix_rand, H_LIST[1]), 4) < 1e-6


def test_probes_build_one_field_per_direction(fix_sig, fix_id, context, monkeypatch):
    """Both probes of direction n are Euler steps along one flow_field(n)."""
    eps, modes = 1e-5, range(-2, 3)
    quotients = []
    for n in modes:
        tp, _, _ = time_variables(step(fix_sig, H_BASIC, n, +eps), H_BASIC, 2)
        tm, _, _ = time_variables(step(fix_sig, H_BASIC, n, -eps), H_BASIC, 2)
        quotients.append([(tp[m] - tm[m]) / (2.0 * eps) for m in modes])
    by_steps = float(np.max(np.abs(np.array(quotients) - np.eye(len(modes)))))
    calls = []
    build = flows.flow_field

    def counted(pair, h, n, *args, **kwargs):
        calls.append(n)
        return build(pair, h, n, *args, **kwargs)

    monkeypatch.setattr(flows, "flow_field", counted)
    assert jacobian_check(context(fix_sig, H_BASIC, eps_fd=eps), 2) == by_steps
    assert calls == list(modes)
    calls.clear()
    tau_gradient_check(context(fix_id, H_BASIC, eps_fd=eps), 1)
    assert calls == [-1, 0, 1]
    # a context shares its fields between the two checks
    calls.clear()
    ctx = context(fix_id, H_BASIC, eps_fd=eps)
    jacobian_check(ctx, 2)
    tau_gradient_check(ctx, 1)
    assert calls == list(modes)


def test_jacobian_probes_build_only_the_t_chains(monkeypatch):
    """On the sigma fixture at order 16 the check reads t off 34 probe
    moment objects (two per direction), none of which builds g^1..g^N,
    f^-1..f^-N or the reciprocal of f; each probe's t is that of
    `time_variables` bit for bit."""
    built, init = [], Moments.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Moments, "__init__", recorded)
    sigma = Path(__file__).resolve().parents[1] / "configs" / "fixture_sigma.json"
    ctx = load_config(str(sigma)).context()
    jacobian_check(ctx, plan.jacobian_order(ctx.order))
    probes = list(built)
    assert ctx.order == 16 and len(probes) == 34
    for mo in probes:
        assert "t" in mo.__dict__
        assert not {"g_up", "f_down", "f_inv", "times"} & mo.__dict__.keys()
        assert mo.t == time_variables(mo.pair, mo.h, mo.order)[0]


# ---------------------------------------------------------------------------
# string relation


def test_string_identity_exact(fix_id, context):
    assert string_check(context(fix_id, H_BASIC)) == 0.0


def test_string_random(fix_rand, context):
    for h in H_LIST:
        assert string_check(context(fix_rand, h)) < 1e-9


def test_string_sigma_fixture(fix_sig, context):
    assert string_check(context(fix_sig, H_LIST[2])) < 1e-9


def test_string_gauge_invariant(fix_rand, context):
    plain = string_check(context(fix_rand, H_LIST[0]))
    gauged = string_check(context(fix_rand, H_LIST[0], gauge=GAUGE))
    assert abs(plain - gauged) <= 1e-12


# ---------------------------------------------------------------------------
# bracket forms of the evolution


def test_lax_identity_exact(fix_id, context):
    assert lax_check(context(fix_id, H_BASIC), 1, 4) == 0.0


def test_lax_random(fix_rand, context):
    ctx = context(fix_rand, H_BASIC)
    for n in (-3, -2, -1, 1, 2, 3):
        assert lax_check(ctx, n, 4) < 1e-8
    ctx = context(fix_rand, H_LIST[1])
    for n in (-2, 1):
        assert lax_check(ctx, n, 4) < 1e-8


def test_lax_rejects_index_zero(fix_rand, context):
    ctx = context(fix_rand, H_BASIC)
    with pytest.raises(ValueError):
        lax_check(ctx, 0, 2)
    with pytest.raises(S.SeriesError):
        lax_check(ctx, 5, 2)


def test_canonical_bracket_identity_exact(fix_id, context):
    assert canonical_bracket_check(context(fix_id, H_BASIC)) == 0.0


def test_canonical_bracket_random(fix_rand, context):
    for h in H_LIST:
        assert canonical_bracket_check(context(fix_rand, h)) < 1e-8


# ---------------------------------------------------------------------------
# what the tau function generates


def test_tau_gradient_identity(fix_id, context):
    report = tau_gradient_check(context(fix_id, H_BASIC), 2)
    assert report["v0_t0"] < 1e-6  # b = 1 makes -2 b00 = 0
    assert report["max"] < 1e-6


def test_tau_gradient_random(fix_rand, context):
    report = tau_gradient_check(context(fix_rand, H_BASIC), 6)
    assert report["gradient"] < 1e-6
    assert report["hessian"] < 1e-6
    assert report["hessian_symmetry"] < 1e-6
    assert report["v0_t0"] < 1e-6
    assert report["max"] < 1e-6


# ---------------------------------------------------------------------------
# property: the split is consistent and norm-preserving across the chart


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    decay=st.floats(min_value=0.05, max_value=0.3),
    n=st.integers(min_value=-3, max_value=3),
)
def test_split_properties(seed, decay, n):
    pair = random_pair(seed, decay, 8)
    ff = flow_field(pair, H_BASIC, n)
    gp, fp = pair.g_prime(), pair.f_prime()
    lhs = S.sub(S.mul(ff.dg, fp), S.mul(ff.df, gp))
    rhs = S.mul(S.mul(gp, fp), ff.u_series)
    assert S.max_abs_diff_reliable(lhs, rhs) < 1e-10
    assert abs(ff.df.coeff(1) / pair.a1 + ff.dg.coeff(1) / pair.b) < 1e-12
