"""Flow vector fields on the space of normalized pairs, and their checks.

Each integer n carries a vector field, built from the rational function

    u_n(w) = -P_n'(w) / (g'(w) f'(w) E(w)),

where P_n is the polynomial part of g**n (n >= 1) or f**n (n <= -1), P_0'
is taken to be 1/w, and E is the mixed second partial of the potential
evaluated along (g, f).  E is all a field reads of the potential: d12
drops one-variable (gauge) terms, so no field sees the gauge.  Writing c1
for the w^1 coefficient of u_n, the one-sided split

    dg = g' * ((u_n restricted to exponents <= 0) + c1 w / 2)
    df = -f' * (c1 w / 2 + (u_n restricted to exponents >= 2))

moves g inside its chart window and f inside its own, satisfies
dg/g' - df/f' = u_n exactly, and varies the leading coefficients opposite
ways (d log a1 = -d log b), so normalization a1 b = 1 survives to first
order.  Every direction shares E and the denominator g' f' E, so
`flow_fields` builds a set of directions from one denominator, one Faber
chain per side and one batched circle division.  The checks below verify,
by exact tangents (`tangent`) and by residue algebra, that these fields
straighten the time variables (dt_m/deps = delta_{nm}), satisfy the string
relation, agree with the bracket form of the evolution (Lax shape and the
canonical relation {L, M} = L, with {A, B} = w dA/dw * dB/dt0 - w dA/dt0 *
dB/dw and t0-derivatives from the n = 0 field), and that the tau function
generates the v's and the pairing table.  They read the pair and every
shared field and table from one `context.PairContext`.
"""

from dataclasses import dataclass

import numpy as np

from . import series as S
from .series import AT_INFINITY, AT_ZERO, LaurentSeries, SeriesError
from .conformal_pair import ConformalPair, from_coefficients
from . import plan
from .grunsky import b_polynomial, faber_polynomials
from .hamiltonian import eval_along


class ChartError(SeriesError):
    """A step left the normalized-pair chart."""


@dataclass(frozen=True)
class FlowField:
    """Direction-n variation of a pair: the function u_n and the split."""

    n: int
    u_series: LaurentSeries
    dg: LaurentSeries
    df: LaurentSeries


def _mixed_partial_along(pair, h) -> LaurentSeries:
    width = plan.halfwidth(pair, h, 0)
    return eval_along(h.d12(), pair, (-width, width))


def flow_fields(pair, e12: LaurentSeries, ns, pad: int = 0) -> dict:
    """{n: FlowField} of each n in ``ns``: u_n = -P_n'/(g' f' E) on |exponent|
    <= order + |n| + pad, off E (``e12``), one denominator,
    `grunsky.faber_polynomials` and one `series.divide_on_circle`; no field
    depends on the others.  Identity checks pad by `plan.check_pad`."""
    ns, pad = sorted({int(n) for n in ns}), int(pad)
    gp, fp = pair.g_prime(), pair.f_prime()
    polys = faber_polynomials(pair, [n for n in ns if n])
    rows = [(S.scale(S.derivative(polys[n]), -1.0) if n else S.monomial(-1, -1.0),
             (-(pair.order + abs(n) + pad), pair.order + abs(n) + pad)) for n in ns]
    fields = {}
    for n, u in zip(ns, S.divide_on_circle(rows, S.mul(S.mul(gp, fp), e12))):
        half = 0.5 * u.coeff(1)  # the one-sided split
        dg = S.mul(gp, S.add(S.project(u, hi=0), S.monomial(1, half)))
        df = S.mul(fp, S.scale(S.add(S.monomial(1, half), S.project(u, lo=2)), -1.0))
        fields[n] = FlowField(n=n, u_series=u, dg=dg, df=df)
    return fields


def flow_field(pair, h, n: int, pad: int = 0) -> FlowField:
    """The direction-n variation (dg, df): `flow_fields` of ``n`` alone."""
    return flow_fields(pair, _mixed_partial_along(pair, h), (n,), pad)[int(n)]


@dataclass(frozen=True)
class _ChartPoint:
    """Unvalidated stage point for multistage integrators (duck-typed pair)."""

    g: LaurentSeries
    f: LaurentSeries
    order: int

    def g_prime(self) -> LaurentSeries:
        return S.derivative(self.g)

    def f_prime(self) -> LaurentSeries:
        return S.derivative(self.f)


def _nudge(pair, dg: LaurentSeries, df: LaurentSeries, eps: float) -> "_ChartPoint":
    g = S.add(pair.g, S.scale(dg, eps))
    f = S.add(pair.f, S.scale(df, eps))
    g = LaurentSeries(g.lo_exp, g.coeffs, AT_INFINITY, g.reliable)
    f = LaurentSeries(f.lo_exp, f.coeffs, AT_ZERO, f.reliable)
    return _ChartPoint(g, f, pair.order)


def _reassemble(point: "_ChartPoint") -> ConformalPair:
    """Clip a stage point to canonical windows, police drift, renormalize."""
    order = point.order
    g_map = {k: point.g.coeff(k) for k in range(-order, 2)}
    f_map = {k: point.f.coeff(k) for k in range(1, order + 2)}
    drift = abs(f_map[1] * g_map[1] - 1.0)
    if drift > 1e-9:
        raise ChartError("flow left chart")
    if drift > 1e-14:  # below roundoff a rescale only injects noise
        scale = 1.0 / (f_map[1] * g_map[1])
        f_map = {k: scale * c for k, c in f_map.items()}
    return from_coefficients(g_map, f_map, order)


def step(pair, h, n: int, eps: float, method: str = "euler") -> ConformalPair:
    """Advance the pair by eps along direction n and renormalize.

    Euler takes one field evaluation; rk4 takes four (classical weights).
    Normalization drift beyond 1e-9 before renormalization means the step
    size left the chart's validity and raises ChartError.
    """
    eps, k1 = float(eps), flow_field(pair, h, n)
    if method == "euler":
        return _reassemble(_nudge(pair, k1.dg, k1.df, eps))
    if method == "rk4":
        k2 = flow_field(_nudge(pair, k1.dg, k1.df, eps / 2), h, n)
        k3 = flow_field(_nudge(pair, k2.dg, k2.df, eps / 2), h, n)
        k4 = flow_field(_nudge(pair, k3.dg, k3.df, eps), h, n)
        dg = S.add(S.add(k1.dg, S.scale(S.add(k2.dg, k3.dg), 2.0)), k4.dg)
        df = S.add(S.add(k1.df, S.scale(S.add(k2.df, k3.df), 2.0)), k4.df)
        return _reassemble(_nudge(pair, S.scale(dg, 1.0 / 6.0), S.scale(df, 1.0 / 6.0), eps))
    raise ValueError(f"unknown method {method!r}")


def tangent(pair, e12: LaurentSeries, ff: FlowField) -> LaurentSeries:
    """Q = E (g' df - f' dg), (dg, df) read on the chart windows as `step` does.
    Along it res(d1H g' phi(g)) moves by res(Q phi(g)) and res(d2H f' psi(f))
    by -res(Q psi(f)): integrated by parts, the dg' and df' terms cancel."""
    dg = LaurentSeries(-pair.order, S.dense(ff.dg, -pair.order, 1), AT_INFINITY)
    df = LaurentSeries(1, S.dense(ff.df, 1, pair.order + 1), AT_ZERO)
    return S.mul(e12, S.sub(S.mul(pair.g_prime(), df), S.mul(pair.f_prime(), dg)))


def time_tangents(ctx, order: int) -> np.ndarray:
    """dt_m along Q_n, row n and column m for |n|, |m| <= order:
    m dt_m = res(Q_n g^-m), dt_0 = res(Q_n), m dt_-m = -res(Q_n f^m)."""
    mo, k = ctx.moments(order, ()), np.arange(1.0, order + 1)
    dt = S.residue_matrix(ctx.tangents(range(-order, order + 1)),
                          S.Rows.of([mo.f_up[::-1], S.constant(1.0), mo.g_down]))
    return dt * np.concatenate([-1.0 / k[::-1], [1.0], 1.0 / k])


def jacobian_check(ctx, order: int) -> float:
    """max |dt_m(d_n) - delta_{nm}| over |n|,|m| <= order."""
    return float(np.max(np.abs(time_tangents(ctx, int(order)) - np.eye(2 * int(order) + 1))))


def string_check(ctx) -> float:
    """Residual of (w g' df0 - w f' dg0) * E - 1 over the reliable window."""
    pair = ctx.pair
    ff, e12 = ctx.flow_fields((0,), plan.check_pad(pair))[0], ctx.mixed_partial()
    bracket = S.shift(S.sub(S.mul(pair.g_prime(), ff.df), S.mul(pair.f_prime(), ff.dg)), 1)
    residual = S.sub(S.mul(bracket, e12), S.constant(1.0))
    return S.max_abs_diff_reliable(residual, S.zero())


def _halved_projection(q: LaurentSeries, n: int) -> LaurentSeries:
    """One-sided part of q with half its mean term, matching index sign n."""
    kept = S.project(q, lo=1) if n >= 1 else S.project(q, hi=-1)
    return S.add(kept, S.monomial(0, 0.5 * q.coeff(0)))


def lax_check(ctx, n: int, order: int) -> float:
    """Residual of the bracket form of direction n.

    Compares flow_field(n) against {B_n, g} and {B_n, f}, where B_n is the
    half-constant polynomial of index n of the order-``order`` table, its
    t0-derivative is assembled from the n = 0 field through the same
    one-sided projection that defines it, and t0-derivatives inside the
    bracket are the n = 0 field (the index-free canonical relation is
    `canonical_bracket_check`).
    """
    n = int(n)
    if n == 0:
        raise ValueError("lax index must be nonzero")
    pair, table = ctx.pair, ctx.table(order)
    if abs(n) > table.order:
        raise SeriesError(f"lax index {n} exceeds table order {table.order}")
    pad = plan.check_pad(pair)
    ff0, ffn = ctx.flow_fields((0, n), pad=pad).values()
    poly_prime = S.derivative(b_polynomial(pair, table, n))
    # the kept side of q, and its mean term, read base = s**(n-1) up to w**-1
    # on its decaying side: dg0 ends at w**1 and df0 starts there
    s, ds = (pair.g, ff0.dg) if n >= 1 else (pair.f, ff0.df)
    base = S.int_pow(s, n - 1, abs(n))
    dpoly0 = _halved_projection(S.scale(S.mul(base, ds), float(n)), n)

    def bracket_with(ds: LaurentSeries, s_prime: LaurentSeries) -> LaurentSeries:
        return S.shift(S.sub(S.mul(poly_prime, ds), S.mul(dpoly0, s_prime)), 1)

    return float(np.max([
        S.max_abs_diff_reliable(ffn.dg, bracket_with(ff0.dg, pair.g_prime())),
        S.max_abs_diff_reliable(ffn.df, bracket_with(ff0.df, pair.f_prime())),
    ]))


def canonical_bracket_check(ctx) -> float:
    """Residual of {L, M} - L with L = g and M = g * d1(potential)(g, f).  The
    partials are read 4 past the flow window; on that window the residual
    moves at rounding level (verify-sigma16, seed 12, op 7: 2.2e-16 -> 5.6e-17)."""
    pair, h = ctx.pair, ctx.h
    width = plan.halfwidth(pair, h, 0) + 4
    window = (-width, width)
    a1 = eval_along(h.d1(), pair, window)
    a11 = eval_along(h.d11(), pair, window)
    a12 = eval_along(h.d12(), pair, window)
    ff0 = ctx.flow_fields((0,), pad=plan.check_pad(pair))[0]
    gp, fp = pair.g_prime(), pair.f_prime()
    d_m = S.add(S.mul(ff0.dg, a1),
                S.mul(pair.g, S.add(S.mul(a11, ff0.dg), S.mul(a12, ff0.df))))
    m_prime = S.add(S.mul(gp, a1),
                    S.mul(pair.g, S.add(S.mul(a11, gp), S.mul(a12, fp))))
    lhs = S.sub(S.shift(S.mul(gp, d_m), 1), S.shift(S.mul(ff0.dg, m_prime), 1))
    return S.max_abs_diff_reliable(lhs, pair.g)


def tau_tangents(ctx, order: int):
    """(dlogT, dv) along Q_n, |n| <= order: dlogT[n] and dv[n, m] = dv_m, |m| <= order,
    with dv_k = res(Q g^k), dv_-k = -res(Q f^-k), dv_0 = res(Q (log(g/w) - log(f/w))).
    logT = (sum_m t_m v_m)/2 + Z3 (v_0 at m = 0) moves by (sum_m (dt_m v_m + t_m dv_m)
    - res(Q H(g, f)))/2, read at full lattice order: the tau function is the pair's."""
    mo = ctx.moments(ctx.pair.order, ())
    (t, v, _), full = mo.times, mo.order
    k, modes = np.arange(1.0, full + 1), range(-full, full + 1)
    res = S.residue_matrix(ctx.tangents(range(-order, order + 1)), S.Rows.of(
        [mo.h_along, mo.block(ctx.pair.f, -full, mo.m[1], True)[::-1], S.sub(*mo.logs), mo.g_up,
         mo.f_up[::-1], S.constant(1.0), mo.g_down]))
    dv = res[:, 1:2 * full + 2] * np.repeat([-1.0, 1.0], [full, full + 1])
    dt = res[:, 2 * full + 2:] * np.concatenate([-1.0 / k[::-1], [1.0], 1.0 / k])
    d_logt = (dt @ [v[m] if m else mo.v0 for m in modes] + dv @ [t[m] for m in modes]
              - res[:, 0]) / 2.0
    return d_logt, dv[:, full - order:full + order + 1]


def tau_gradient_check(ctx, order: int) -> dict:
    """Tangent tests of what the tau function generates.

    Returns a dict of defects: ``gradient`` for d(logT)/dt_n vs v_n
    (v_0 at n = 0), ``hessian`` for d(v_m)/dt_n vs -|mn| b(m,n) off the
    axes, +|m| b(m,0) on the n = 0 column and +|n| b(0,n) on the m = 0
    row, ``v0_t0`` for d(v_0)/dt_0 vs -2 b(0,0), ``hessian_symmetry`` for
    equality of mixed partials, and ``max`` over all of them.
    """
    order = int(order)
    d_logt, dv = tau_tangents(ctx, order)
    base, ns = ctx.coords(order), np.arange(-order, order + 1)
    gradient = float(np.max(np.abs(d_logt - [base.v[n] if n else base.v0 for n in ns])))
    c = np.where(ns, -np.abs(ns), 1)
    want = -np.outer(c, c) * ctx.table(order).b.T  # row n, column m
    want[order, order] *= 2.0
    defect = np.abs(dv - want)
    v0_t0, defect[order, order] = float(defect[order, order]), 0.0
    inner = np.delete(np.delete(dv, order, 0), order, 1)
    hessian, symmetry = float(np.max(defect)), float(np.max(np.abs(inner - inner.T)))
    return {"gradient": gradient, "hessian": hessian, "hessian_symmetry": symmetry,
            "v0_t0": v0_t0, "max": float(np.max([gradient, hessian, symmetry, v0_t0]))}
