"""Monomial-potential calculus checks.

Oracles used here:

* partial-derivative examples are hand calculus on monomials;
* the antiderivative pair is checked against its defining relations
  -dJ1/dz2 = dJ2/dz1 = (potential)*(mixed second partial), with the right
  side multiplied out termwise inside the test (coefficient comparison at
  ulp-level tolerance, since building J divides by an integer the check
  multiplies back);
* closed-form gauge shifts are re-derived as explicit residues of the
  coordinate integrands on a random pair (each is a winding count, so the
  numeric value is an integer multiple of c up to roundoff);
* the v_0 gauge shift is checked to vanish by evaluating the full v_0
  integrand delta, whose log part cancels the -potential/w part by parts.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtoda import series as S
from dtoda.conformal_pair import from_coefficients
from dtoda.hamiltonian import (
    GaugeTerm,
    HamiltonianH,
    LogObstructionError,
    MonomialSum,
    eval_along,
    gauge_shift_constants,
    gauge_sum,
    j_pair,
)


def product_sum(a: MonomialSum, b: MonomialSum) -> MonomialSum:
    """Termwise product oracle: exponents add in the (mu, nu) convention."""
    out = []
    for mu, nu, c in a.terms:
        for mup, nup, cp in b.terms:
            out.append((mu + mup, nu + nup, c * cp))
    return MonomialSum.of(*out)


def negated(ms: MonomialSum) -> MonomialSum:
    return MonomialSum.of(*((mu, nu, -c) for mu, nu, c in ms.terms))


def assert_terms_close(got: MonomialSum, want: MonomialSum, tol: float = 1e-14):
    gd = {(m, n): c for m, n, c in got.terms}
    wd = {(m, n): c for m, n, c in want.terms}
    for key in set(gd) | set(wd):
        g = gd.get(key, 0j)
        w = wd.get(key, 0j)
        assert abs(g - w) <= tol * max(1.0, abs(w)), (key, g, w)


# -- partial derivatives -------------------------------------------------------


def test_partials_basic():
    ms = HamiltonianH.of((1, 1, 1.0)).as_sum()  # z1/z2
    d1, d2, d12 = ms.d1(), ms.d2(), ms.d12()
    assert d1.terms == ((0, 1, 1.0),)        # z2^-1
    assert d2.terms == ((1, 2, -1.0),)       # -z1 z2^-2
    assert d12.terms == ((0, 2, -1.0),)      # -z2^-2


def test_partials_quadratic():
    d12 = HamiltonianH.of((2, 1, 1.0)).as_sum().d12()  # z1^2/z2
    assert d12.terms == ((1, 2, -2.0),)      # -2 z1 z2^-2


def test_partials_two_terms():
    d12 = HamiltonianH.of((1, 1, 1.0), (2, 2, 0.5)).as_sum().d12()
    assert d12.terms == ((0, 2, -1.0), (1, 3, -2.0))


def test_second_partial_d11():
    ms = MonomialSum.of((3, 1, 2.0), (1, 1, 5.0), (0, 2, 7.0))
    assert ms.d11().terms == ((1, 1, 12.0),)


def test_merge_and_scale():
    ms = MonomialSum.of((1, 1, 1.0), (1, 1, 2.0), (2, 1, 1.0), (2, 1, -1.0))
    assert ms.terms == ((1, 1, 3.0),)
    assert (ms + MonomialSum.of((1, 1, -3.0))).terms == ()


# -- validation ----------------------------------------------------------------


def test_zero_exponent_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        HamiltonianH.of((0, 1, 1.0))
    with pytest.raises(ValueError, match="nonzero"):
        HamiltonianH.of((1, 0, 1.0))


def test_cancelling_terms_rejected():
    with pytest.raises(ValueError, match="mixed second partial"):
        HamiltonianH.of((1, 1, 1.0), (1, 1, -1.0))


def test_log_obstruction_at_construction():
    with pytest.raises(LogObstructionError, match="log obstruction"):
        HamiltonianH.of((1, 1, 1.0), (-1, 1, 1.0))   # mu + mu' = 0
    with pytest.raises(LogObstructionError, match="log obstruction"):
        HamiltonianH.of((1, 1, 1.0), (1, -1, 1.0))   # nu + nu' = 0


def test_gauge_term_validation():
    with pytest.raises(ValueError, match="nonzero"):
        GaugeTerm("z1", 0, 1.0)
    with pytest.raises(ValueError, match="variable"):
        GaugeTerm("z3", 1, 1.0)
    assert GaugeTerm("z1", 2, 1.0).as_sum().terms == ((2, 0, 1.0),)
    assert GaugeTerm("z2", 2, 1.0).as_sum().terms == ((0, -2, 1.0),)


# -- evaluation along a pair ---------------------------------------------------


def test_eval_along_identity_pair(fix_id):
    h = HamiltonianH.of((1, 1, 1.0))
    d1 = h.as_sum().d1()
    ev = eval_along(d1, fix_id, (-3, 3))          # z2^-1 at f = w
    assert abs(ev.coeff(-1) - 1.0) <= 1e-15
    assert S.max_abs_diff_reliable(ev, S.monomial(-1, 1.0)) <= 1e-15
    full = eval_along(h.as_sum(), fix_id, (-3, 3))  # g/f = 1
    assert S.max_abs_diff_reliable(full, S.constant(1.0)) <= 1e-15


def test_eval_along_mixed_partial_example():
    pair = from_coefficients({1: 1.0, -1: 0.1}, {1: 1.0}, order=4)
    d12 = HamiltonianH.of((1, 1, 1.0)).as_sum().d12()
    ev = eval_along(d12, pair, (-4, 4))           # -z2^-2 at f = w
    assert S.max_abs_diff_reliable(ev, S.monomial(-2, -1.0)) <= 1e-15


def test_eval_along_pointwise_oracle(fix_rand):
    """c*g^3*f^-2 on a wide window against pointwise complex arithmetic."""
    ms = MonomialSum.of((3, 2, 0.7 + 0.2j))
    ev = eval_along(ms, fix_rand, (-40, 40))
    pts = np.exp(2j * np.pi * np.arange(7) / 7.0)
    gv = S.eval_at_points(fix_rand.g, pts)
    fv = S.eval_at_points(fix_rand.f, pts)
    want = (0.7 + 0.2j) * gv ** 3 * fv ** (-2)
    got = S.eval_at_points(ev, pts)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_eval_along_linearity(fix_rand):
    a = MonomialSum.of((2, 1, 1.0))
    b = MonomialSum.of((1, 2, 0.5j))
    w = (-12, 12)
    lhs = eval_along(a + b, fix_rand, w)
    rhs = S.add(eval_along(a, fix_rand, w), eval_along(b, fix_rand, w))
    assert S.max_abs_diff_reliable(lhs, rhs) <= 1e-14


def test_eval_along_empty_sum(fix_id):
    ev = eval_along(MonomialSum.of(), fix_id, (-2, 2))
    assert ev.coeff(0) == 0 and ev.coeff(-2) == 0


# -- antiderivative pair -------------------------------------------------------


@pytest.mark.parametrize("mu,nu", [(1, 1), (2, 3), (-1, 2), (-2, -3)])
def test_j_pair_single_monomial_closed_form(mu, nu):
    """One monomial: J1 = -(mu/2) z1^(2mu-1) z2^(-2nu),
    J2 = -(nu/2) z1^(2mu) z2^(-2nu-1)."""
    j1, j2 = j_pair(HamiltonianH.of((mu, nu, 1.0)))
    assert_terms_close(j1, MonomialSum.of((2 * mu - 1, 2 * nu, -mu / 2.0)))
    assert_terms_close(j2, MonomialSum.of((2 * mu, 2 * nu + 1, -nu / 2.0)))


def test_j_pair_defining_relations_two_terms():
    h = HamiltonianH.of((1, 1, 1.0), (2, 2, 0.3 - 0.1j))
    j1, j2 = j_pair(h)
    rhs = product_sum(h.as_sum(), h.as_sum().d12())
    assert_terms_close(negated(j1.d2()), rhs)
    assert_terms_close(j2.d1(), rhs)


def test_j_pair_log_obstruction_message():
    ms = MonomialSum.of((1, 1, 1.0), (-1, 1, 1.0))
    with pytest.raises(LogObstructionError, match="log obstruction in J construction"):
        j_pair(ms)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3),
              st.sampled_from([1.0, -0.5, 0.25j, 0.7 - 0.3j])),
    min_size=1, max_size=3))
def test_j_pair_defining_relations_random(raw):
    try:
        h = HamiltonianH.of(*raw)
    except ValueError:
        return  # not admissible; nothing to check
    j1, j2 = j_pair(h)
    rhs = product_sum(h.as_sum(), h.as_sum().d12())
    assert_terms_close(negated(j1.d2()), rhs)
    assert_terms_close(j2.d1(), rhs)


# -- gauge shifts --------------------------------------------------------------


def test_gauge_closed_forms_examples():
    t, v, v0 = gauge_shift_constants([GaugeTerm("z1", 1, 1.0)], 4)
    assert t[1] == 1.0 and all(c == 0 for n, c in t.items() if n != 1)
    assert all(c == 0 for c in v.values()) and v0 == 0

    t, v, v0 = gauge_shift_constants([GaugeTerm("z1", 2, 1.0)], 4)
    assert t[2] == 1.0 and all(c == 0 for n, c in t.items() if n != 2)

    t, v, v0 = gauge_shift_constants([GaugeTerm("z2", 1, 1.0)], 4)
    assert all(c == 0 for c in t.values())
    assert v[-1] == 1.0 and all(c == 0 for n, c in v.items() if n != -1)

    t, v, v0 = gauge_shift_constants([GaugeTerm("z2", 2, 1.0)], 4)
    assert v[-2] == 2.0 and all(c == 0 for n, c in v.items() if n != -2)

    t, v, v0 = gauge_shift_constants([GaugeTerm("z2", -1, 1.0)], 4)
    assert t[-1] == -1.0 and all(c == 0 for n, c in t.items() if n != -1)
    assert all(c == 0 for c in v.values())

    t, v, v0 = gauge_shift_constants([GaugeTerm("z1", -2, 0.5)], 4)
    assert v[2] == -1.0 and all(c == 0 for n, c in v.items() if n != 2)
    assert all(c == 0 for c in t.values())


def test_gauge_shift_residue_oracle(fix_rand):
    """Recompute three shifts as explicit residues of the coordinate
    integrands; each is a winding count times c."""
    g, f = fix_rand.g, fix_rand.f
    dg, df = fix_rand.g_prime(), fix_rand.f_prime()

    # z2^2: the v integrand picks up d/dz(z^2)(f) * f^-2 * f' = 2 f^-1 f'.
    delta = S.residue_mul(S.scale(S.int_pow(f, -1, depth=40), 2.0), df)
    _, v, _ = gauge_shift_constants([GaugeTerm("z2", 2, 1.0)], 8)
    assert abs(delta - v[-2]) <= 1e-12

    # z1^-2: the v integrand picks up -2 g^-3 * g^2 * g' = -2 g^-1 g'.
    delta = S.residue_mul(S.scale(S.int_pow(g, -1, depth=40), -2.0), dg)
    _, v, _ = gauge_shift_constants([GaugeTerm("z1", -2, 1.0)], 8)
    assert abs(delta - v[2]) <= 1e-12

    # z2^-1: the t_{-1} integrand picks up -f^-2 * f^1 * f' = -f^-1 f'.
    delta = S.residue_mul(S.scale(S.int_pow(f, -1, depth=40), -1.0), df)
    t, _, _ = gauge_shift_constants([GaugeTerm("z2", -1, 1.0)], 8)
    assert abs(delta - t[-1]) <= 1e-12

    # z1^2 moves no t_n with n >= 2 mismatch: residues of 2 g^(n+1) g' vanish.
    for n in (1, 2, 3):
        val = S.residue_mul(S.scale(S.int_pow(g, n + 1), 2.0), dg)
        assert abs(val) <= 1e-12


def test_gauge_v0_shift_vanishes(fix_rand):
    """Direct evaluation of the v_0 integrand delta for z1^2 and z2^3."""
    g, f = fix_rand.g, fix_rand.f
    dg, df = fix_rand.g_prime(), fix_rand.f_prime()

    c, j, u = S.split_normalize(g)
    log_g = S.add(S.constant(cmath.log(c)), S.log1p(u, depth=60))
    delta = (S.residue_mul(S.scale(S.mul(g, dg), 2.0), log_g)
             - S.int_pow(g, 2).coeff(0))
    assert abs(delta) <= 1e-12

    c2, j2, u2 = S.split_normalize(f)
    log_f = S.add(S.constant(cmath.log(c2)), S.log1p(u2, depth=60))
    delta = (S.residue_mul(S.scale(S.mul(S.int_pow(f, 2, depth=60), df), 3.0), log_f)
             - S.int_pow(f, 3, depth=60).coeff(0))
    assert abs(delta) <= 1e-12

    _, _, v0_shift = gauge_shift_constants(
        [GaugeTerm("z1", 2, 1.0), GaugeTerm("z2", 3, 1.0)], 8)
    assert v0_shift == 0


def test_gauge_sum_combines():
    gs = gauge_sum([GaugeTerm("z1", 1, 1.0), GaugeTerm("z2", 2, 0.5)])
    assert gs.terms == ((0, -2, 0.5), (1, 0, 1.0))
