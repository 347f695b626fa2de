"""Flow-field construction, stepping, and the dynamical identity checks."""

import cmath
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtoda import flows
from dtoda import plan
from dtoda import coords as C
from dtoda import series as S
from dtoda.cli import _PROBE_GAUGE, CHECKS, load_config
from dtoda.conformal_pair import from_coefficients, random_pair, sigma_conjugate
from dtoda.grunsky import faber
from dtoda.hamiltonian import HamiltonianH, MonomialSum, eval_along
from dtoda.coords import Moments, time_variables, toda_coordinates, v_zero
from dtoda.flows import (
    ChartError,
    canonical_bracket_check,
    flow_field,
    flow_fields,
    jacobian_check,
    lax_check,
    step,
    string_check,
    tau_gradient_check,
    tau_tangents,
    time_tangents,
)

H_BASIC = HamiltonianH.of((1, 1, 1.0))
H_LIST = [
    HamiltonianH.of((1, 1, 1.0)),
    HamiltonianH.of((2, 1, 1.0), (1, 2, 0.3)),
    HamiltonianH.of((2, 2, 1.0), (1, 1, -0.25)),
]

GAUGE = (
    (1, 0, 1.0),
    (0, -2, 0.5 - 0.25j),
    (-2, 0, 0.75j),
    (0, 1, -0.5),
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def same_series(a, b):
    return S.max_abs_diff_reliable(a, b)


def _same_bits(a, b) -> bool:
    """The same bits: window, reliable range and coefficients."""
    return (a.lo_exp, a.reliable) == (b.lo_exp, b.reliable) and np.array_equal(a.coeffs, b.coeffs)


def _same_field(a, b) -> bool:
    return all(_same_bits(x, y)
               for x, y in ((a.u_series, b.u_series), (a.dg, b.dg), (a.df, b.df)))


def u_field(pair, h, n):
    return flow_field(pair, h, n).u_series


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
        gauged = flow_field(fix_rand, H_LIST[1] + MonomialSum.of(*GAUGE), n)
        assert _same_field(plain, gauged), n


@pytest.mark.parametrize("order", [16, 32])
@pytest.mark.parametrize("fixture", ["identity", "random", "sigma"])
def test_mixed_partial_gauge_invariant(fixture, order):
    # E is all a field reads of the potential, and d12 drops the gauge
    config = dataclasses.replace(load_config(str(CONFIGS / f"fixture_{fixture}.json")),
                                 order=order)
    pair, h = config.build_pair(), config.hamiltonian()
    gauged = h + MonomialSum.of(*_PROBE_GAUGE)
    assert _same_bits(flows._mixed_partial_along(pair, h),
                        flows._mixed_partial_along(pair, gauged))


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
    """The tangents of direction n read one field of direction n, and agree
    with Euler steps along it by central differences."""
    eps, modes = 1e-5, range(-2, 3)
    quotients = []
    for n in modes:
        tp, _, _ = time_variables(step(fix_sig, H_BASIC, n, +eps), H_BASIC, 2)
        tm, _, _ = time_variables(step(fix_sig, H_BASIC, n, -eps), H_BASIC, 2)
        quotients.append([(tp[m] - tm[m]) / (2.0 * eps) for m in modes])
    by_steps = float(np.max(np.abs(np.array(quotients) - np.eye(len(modes)))))
    calls = []
    build = flows.flow_fields

    def counted(pair, h, ns, *args, **kwargs):
        calls.extend(ns)
        return build(pair, h, ns, *args, **kwargs)

    monkeypatch.setattr(flows, "flow_fields", counted)
    assert abs(jacobian_check(context(fix_sig, H_BASIC), 2) - by_steps) <= 1e-8
    assert calls == list(modes)
    calls.clear()
    tau_gradient_check(context(fix_id, H_BASIC), 1)
    assert calls == [-1, 0, 1]
    # a context shares its fields between the two checks
    calls.clear()
    ctx = context(fix_id, H_BASIC)
    jacobian_check(ctx, 2)
    tau_gradient_check(ctx, 1)
    assert calls == list(modes)


def test_jacobian_builds_no_stepped_pair(monkeypatch, chain_lengths):
    """The battery's jacobian on the sigma fixture steps no pair: it reads
    one moment object, on the pair itself at `plan.jacobian_order`.  The
    pair's chains hold only the t rows g^-1..g^-N and f^1..f^N that the
    moments read and the Faber rows g^1..g^N and f^-1..f^-N of the fields."""
    calls = {"_nudge": 0, "_reassemble": 0}
    for name in calls:
        def counted(*args, _name=name, _build=getattr(flows, name)):
            calls[_name] += 1
            return _build(*args)
        monkeypatch.setattr(flows, name, counted)
    built, init = [], Moments.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Moments, "__init__", recorded)
    sigma = Path(__file__).resolve().parents[1] / "configs" / "fixture_sigma.json"
    ctx = load_config(str(sigma)).context()
    assert CHECKS["jacobian"][1](ctx) < 1e-6
    assert calls == {"_nudge": 0, "_reassemble": 0}
    (mo,) = built
    assert mo.pair is ctx.pair and mo.order == plan.jacobian_order(16)
    n = plan.jacobian_order(16)
    assert chain_lengths(mo.pair) == {("g", -1): n, ("f", 1): n, ("g", 1): n, ("f", -1): n}


# ---------------------------------------------------------------------------
# exact tangents against central differences and the product rule


@pytest.mark.parametrize("fixture", ["fix_rand", "fix_sig"])
def test_jacobian_rows_match_central_differences(request, fixture, context):
    pair, eps, order = request.getfixturevalue(fixture), 1e-5, 8
    exact = time_tangents(context(pair, H_BASIC), order)
    for n in (2, -2):
        tp, tm = (Moments(step(pair, H_BASIC, n, s), H_BASIC, order).times[0]
                  for s in (eps, -eps))
        row = [(tp[m] - tm[m]) / (2.0 * eps) for m in range(-order, order + 1)]
        assert np.max(np.abs(exact[n + order] - row)) <= 1e-8


def test_tau_tangents_match_central_differences(fix_rand, context):
    eps, order = 1e-5, 4
    d_logt, dv = tau_tangents(context(fix_rand, H_BASIC), order)
    cp, cm = (toda_coordinates(step(fix_rand, H_BASIC, 1, s), H_BASIC) for s in (eps, -eps))
    assert abs(d_logt[order + 1] - (cp.logT - cm.logT) / (2.0 * eps)) <= 1e-8
    row = [(cp.v[m] - cm.v[m] if m else cp.v0 - cm.v0) / (2.0 * eps)
           for m in range(-order, order + 1)]
    assert np.max(np.abs(dv[order + 1] - row)) <= 1e-8


def test_v0_slope_matches_rk4_central_differences():
    sigma = Path(__file__).resolve().parents[1] / "configs" / "fixture_sigma.json"
    ctx, eps = load_config(str(sigma)).context(), 1e-5
    up, dn = (v_zero(step(ctx.pair, ctx.h, 0, s, method="rk4"), ctx.h) for s in (eps, -eps))
    slope = (up - dn) / (2.0 * eps)
    assert abs(tau_tangents(ctx, 0)[1][0, 0] - slope) <= 1e-8
    assert abs(CHECKS["v0_t0_b00"][1](ctx) - abs(slope - 2.0 * cmath.log(ctx.pair.b))) <= 1e-8


@pytest.mark.parametrize("h", [HamiltonianH.of((1, 1, 1.0)),
                               HamiltonianH.of((2, 1, 1.0), (1, 2, 0.3)),
                               HamiltonianH.of((1, 2, 1.0), (2, 2, 0.2 - 0.1j))])
def test_tangents_integrate_the_product_rule_by_parts(fix_rand, context, h):
    """The Q_n readings of dt_m, dv_m and dv_0 against their direct forms,
    e.g. m dt_m = res(dM1 g^-m - m M1 g^-m-1 dg) with
    dM1 = (d11H dg + d12H df) g' + d1H dg'."""
    pair, order, ms = fix_rand, 4, h
    ctx = context(pair, h)
    dt, (_, dv) = time_tangents(ctx, order), tau_tangents(ctx, order)
    width = plan.halfwidth(pair, ms, pair.order)
    a1, a2, a11, a12, a22 = (eval_along(d, pair, (-width, width)) for d in (
        ms.d1(), ms.d2(), ms.d1().d1(), ms.d12(), ms.d2().d2()))
    gp, fp = pair.g_prime(), pair.f_prime()
    m1, m2 = S.mul(a1, gp), S.mul(a2, fp)
    log_g, log_f = C._paired_logs(pair, width)
    depth = width + pair.order + 8

    def g_pow(k):
        return S.int_pow(pair.g, k, depth=depth)

    def f_pow(k):
        return S.int_pow(pair.f, k, depth=depth)

    for n in range(-order, order + 1):
        ff = ctx.flow_fields((n,))[n]
        dg = S.LaurentSeries(-pair.order, S.dense(ff.dg, -pair.order, 1), S.AT_INFINITY)
        df = S.LaurentSeries(1, S.dense(ff.df, 1, pair.order + 1), S.AT_ZERO)
        dm1 = S.add(S.mul(S.add(S.mul(a11, dg), S.mul(a12, df)), gp),
                    S.mul(a1, S.derivative(dg)))
        dm2 = S.add(S.mul(S.add(S.mul(a12, dg), S.mul(a22, df)), fp),
                    S.mul(a2, S.derivative(df)))
        want_t, want_v = {0: S.residue_mul(dm1, S.constant(1.0))}, {}
        for m in range(1, order + 1):
            want_t[m] = (S.residue_mul(dm1, g_pow(-m))
                         - m * S.residue_mul(S.mul(m1, g_pow(-m - 1)), dg)) / m
            want_t[-m] = (S.residue_mul(dm2, f_pow(m))
                          + m * S.residue_mul(S.mul(m2, f_pow(m - 1)), df)) / m
            want_v[m] = (S.residue_mul(dm1, g_pow(m))
                         + m * S.residue_mul(S.mul(m1, g_pow(m - 1)), dg))
            want_v[-m] = (S.residue_mul(dm2, f_pow(-m))
                          - m * S.residue_mul(S.mul(m2, f_pow(-m - 1)), df))
        want_v[0] = (S.residue_mul(dm1, log_g) + S.residue_mul(S.mul(m1, g_pow(-1)), dg)
                     + S.residue_mul(dm2, log_f) + S.residue_mul(S.mul(m2, f_pow(-1)), df)
                     - S.coeff_mul(a1, dg, 0) - S.coeff_mul(a2, df, 0))
        modes = range(-order, order + 1)
        assert np.max(np.abs(dt[n + order] - [want_t[m] for m in modes])) <= 1e-12
        assert np.max(np.abs(dv[n + order] - [want_v[m] for m in modes])) <= 1e-12


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


@pytest.mark.parametrize("order", [16, 32])
def test_tau_gradient_reflection_pair(order, context):
    # the targets are read at the check's own order: at the reflection
    # pair's full order t underflows (measured 3.5e-13 at 16, 1.1e-15 at 32)
    g = S.LaurentSeries.from_pairs({1: 1.0, -1: 0.1}, S.AT_INFINITY)
    pair = sigma_conjugate(g, order)
    report = tau_gradient_check(context(pair, H_BASIC), plan.gradient_order(order))
    assert report["max"] < 1e-11


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


# ---------------------------------------------------------------------------
# batched fields: one denominator for every direction



@pytest.mark.parametrize("padded", [False, True])
def test_fields_in_a_batch_equal_fields_alone(fix_sig, fix_rand, padded):
    for pair in (fix_sig, fix_rand):
        pad = plan.check_pad(pair) if padded else 0
        batch = flow_fields(pair, flows._mixed_partial_along(pair, H_BASIC), range(-8, 9), pad)
        assert sorted(batch) == list(range(-8, 9))
        for n, ff in batch.items():
            assert ff.n == n
            assert _same_field(ff, flow_field(pair, H_BASIC, n, pad=pad)), n


def test_fields_in_a_batch_of_two_sample_counts_equal_fields_alone(fix_sig, monkeypatch):
    # padded by 110, u_0 (window 253 wide) divides on the 1024-point floor and
    # u_2 and u_8 (257 and 269 wide) on 2048: each keeps the count it has alone
    counts, sampled = [], S._sampled
    monkeypatch.setattr(S, "_sampled", lambda rows, m: counts.append(m) or sampled(rows, m))
    batch = flow_fields(fix_sig, flows._mixed_partial_along(fix_sig, H_BASIC), (0, 2, 8), 110)
    assert {ff.u_series.width for ff in batch.values()} == {253, 257, 269}
    assert set(counts) == {1024, 2048}
    for n, ff in batch.items():
        assert _same_field(ff, flow_field(fix_sig, H_BASIC, n, pad=110)), n


def test_batched_fields_match_one_horner_division_per_direction(fix_rand, eval_at_points):
    """u_n against the construction by direction: its own P_n chain, the
    denominator sampled by Horner at 1024 points, one FFT."""
    pair = fix_rand
    e12 = flows._mixed_partial_along(pair, H_BASIC)
    den = S.mul(S.mul(pair.g_prime(), pair.f_prime()), e12)
    pts = np.exp(2j * np.pi * np.arange(1024) / 1024)
    batch = flow_fields(pair, e12, range(-4, 5))
    for n, ff in batch.items():
        num = S.monomial(-1, -1.0) if n == 0 else S.scale(S.derivative(faber(pair, n)), -1.0)
        spec = np.fft.fft(eval_at_points(num, pts) / eval_at_points(den, pts)) / 1024
        half = pair.order + abs(n)
        want = spec[np.mod(np.arange(-half, half + 1), 1024)]
        assert np.max(np.abs(ff.u_series.coeffs - want)) <= 1e-13 * np.max(np.abs(want)), n
