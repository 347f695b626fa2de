"""Flow vector fields on the space of normalized pairs, and their checks.

Each integer n carries a vector field, built from the rational function

    u_n(w) = -P_n'(w) / (g'(w) f'(w) E(w)),

where P_n is the polynomial part of g**n (n >= 1) or f**n (n <= -1), P_0'
is taken to be 1/w, and E is the mixed second partial of the potential
evaluated along (g, f).  Writing c1 for the w^1 coefficient of u_n, the
one-sided split

    dg = g' * ((u_n restricted to exponents <= 0) + c1 w / 2)
    df = -f' * (c1 w / 2 + (u_n restricted to exponents >= 2))

moves g inside its chart window and f inside its own, satisfies
dg/g' - df/f' = u_n exactly, and varies the leading coefficients opposite
ways (d log a1 = -d log b), so normalization a1 b = 1 survives to first
order.  The checks below verify, by central differences and by residue
algebra, that these fields straighten the time variables (dt_m/deps =
delta_{nm}), satisfy the string relation, agree with the bracket form of
the evolution (Lax shape and the canonical relation {L, M} = L), and that
the tau function generates the v's and the pairing table.

The bracket throughout is {A, B} = w dA/dw * dB/dt0 - w dA/dt0 * dB/dw,
with t0-derivatives given by the n = 0 field.

The checks read the pair and every shared field and table from one
`context.PairContext`.
"""

from dataclasses import dataclass

import numpy as np

from . import series as S
from .series import AT_INFINITY, AT_ZERO, LaurentSeries, SeriesError
from .conformal_pair import ConformalPair, from_coefficients
from . import plan
from .grunsky import b_polynomial, faber
from .hamiltonian import eval_along
from .coords import _total_sum, time_variables, toda_coordinates

__all__ = [
    "ChartError", "FlowField", "u_field", "flow_field", "step",
    "jacobian_check", "string_check", "lax_check",
    "canonical_bracket_check", "tau_gradient_check",
]


class ChartError(SeriesError):
    """A step left the normalized-pair chart."""


@dataclass(frozen=True)
class FlowField:
    """Direction-n variation of a pair: the function u_n and the split."""

    n: int
    u_series: LaurentSeries
    dg: LaurentSeries
    df: LaurentSeries


def _mixed_partial_along(pair, h, gauge) -> LaurentSeries:
    ms = _total_sum(h, gauge)
    width = plan.halfwidth(pair, ms, 0)
    return eval_along(ms.d12(), pair, (-width, width))


def u_field(pair, h, n: int, gauge=(), samples: int = 1024,
            pad: int = 0) -> LaurentSeries:
    """The function u_n = -P_n'/(g' f' E) on |exponent| <= order + |n| + pad.

    Coefficientwise identity checks pass a positive ``pad``
    (`plan.check_pad`) to push the dropped tail below their tolerance;
    stepping (which clips to the chart window anyway) uses the default.
    """
    n = int(n)
    if n == 0:
        num = S.monomial(-1, -1.0)
    else:
        num = S.scale(S.derivative(faber(pair, n)), -1.0)
    den = S.mul(S.mul(pair.g_prime(), pair.f_prime()),
                _mixed_partial_along(pair, h, gauge))
    half = pair.order + abs(n) + int(pad)
    return S.divide_on_circle(num, den, (-half, half), samples=samples)


def flow_field(pair, h, n: int, gauge=(), samples: int = 1024,
               pad: int = 0) -> FlowField:
    """The direction-n variation (dg, df) from the one-sided split of u_n."""
    u = u_field(pair, h, n, gauge=gauge, samples=samples, pad=pad)
    half = 0.5 * u.coeff(1)
    bracket_g = S.add(S.project(u, hi=0), S.monomial(1, half))
    bracket_f = S.scale(S.add(S.monomial(1, half), S.project(u, lo=2)), -1.0)
    dg = S.mul(pair.g_prime(), bracket_g)
    df = S.mul(pair.f_prime(), bracket_f)
    return FlowField(n=n, u_series=u, dg=dg, df=df)


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


def _nudge(pair, ff: FlowField, eps: float) -> "_ChartPoint":
    g = S.add(pair.g, S.scale(ff.dg, eps))
    f = S.add(pair.f, S.scale(ff.df, eps))
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
    eps = float(eps)
    if method == "euler":
        k1 = flow_field(pair, h, n)
        return _reassemble(_nudge(pair, k1, eps))
    if method == "rk4":
        k1 = flow_field(pair, h, n)
        k2 = flow_field(_nudge(pair, k1, eps / 2), h, n)
        k3 = flow_field(_nudge(pair, k2, eps / 2), h, n)
        k4 = flow_field(_nudge(pair, k3, eps), h, n)
        dg = S.add(S.add(k1.dg, S.scale(S.add(k2.dg, k3.dg), 2.0)), k4.dg)
        df = S.add(S.add(k1.df, S.scale(S.add(k2.df, k3.df), 2.0)), k4.df)
        combo = FlowField(n=int(n), u_series=k1.u_series,
                          dg=S.scale(dg, 1.0 / 6.0), df=S.scale(df, 1.0 / 6.0))
        return _reassemble(_nudge(pair, combo, eps))
    raise ValueError(f"unknown method {method!r}")


def _probe_pairs(ctx, n: int):
    """Euler steps by +eps_fd, then -eps_fd, along the context's direction-n field."""
    ff, eps = ctx.flow_field(n), float(ctx.eps_fd)
    return (_reassemble(_nudge(ctx.pair, ff, s)) for s in (eps, -eps))


def jacobian_check(ctx, order: int) -> float:
    """max |dt_m/deps along direction n - delta_{nm}| over |n|,|m| <= order."""
    modes = range(-int(order), int(order) + 1)
    eps = ctx.eps_fd
    quotients = []
    for n in modes:
        tp, tm = (time_variables(p, ctx.h, order)[0] for p in _probe_pairs(ctx, n))
        quotients.append([(tp[m] - tm[m]) / (2.0 * eps) for m in modes])
    return float(np.max(np.abs(np.array(quotients) - np.eye(len(modes)))))


def string_check(ctx) -> float:
    """Residual of (w g' df0 - w f' dg0) * E - 1 over the reliable window."""
    pair = ctx.pair
    ff = ctx.flow_field(0, ctx.gauge, plan.check_pad(pair))
    e12 = _mixed_partial_along(pair, ctx.h, ctx.gauge)
    bracket = S.shift(S.sub(S.mul(pair.g_prime(), ff.df),
                            S.mul(pair.f_prime(), ff.dg)), 1)
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
    ff0 = ctx.flow_field(0, pad=pad)
    ffn = ctx.flow_field(n, pad=pad)
    poly = b_polynomial(table, n)
    poly_prime = S.derivative(poly)
    if n >= 1:
        base = S.int_pow(pair.g, n - 1) if n > 1 else S.constant(1.0, AT_INFINITY)
        q = S.scale(S.mul(base, ff0.dg), float(n))
    else:
        base = S.int_pow(pair.f, n - 1, depth=plan.lax_depth(pair, n))
        q = S.scale(S.mul(base, ff0.df), float(n))
    dpoly0 = _halved_projection(q, n)

    def bracket_with(ds: LaurentSeries, s_prime: LaurentSeries) -> LaurentSeries:
        return S.shift(S.sub(S.mul(poly_prime, ds), S.mul(dpoly0, s_prime)), 1)

    return float(np.max([
        S.max_abs_diff_reliable(ffn.dg, bracket_with(ff0.dg, pair.g_prime())),
        S.max_abs_diff_reliable(ffn.df, bracket_with(ff0.df, pair.f_prime())),
    ]))


def canonical_bracket_check(ctx) -> float:
    """Residual of {L, M} - L with L = g and M = g * d1(potential)(g, f)."""
    pair, ms = ctx.pair, _total_sum(ctx.h, ())
    width = plan.bracket_halfwidth(pair, ms)
    window = (-width, width)
    a1 = eval_along(ms.d1(), pair, window)
    a11 = eval_along(ms.d11(), pair, window)
    a12 = eval_along(ms.d12(), pair, window)
    ff0 = ctx.flow_field(0, pad=plan.check_pad(pair))
    gp, fp = pair.g_prime(), pair.f_prime()
    d_m = S.add(S.mul(ff0.dg, a1),
                S.mul(pair.g, S.add(S.mul(a11, ff0.dg), S.mul(a12, ff0.df))))
    m_prime = S.add(S.mul(gp, a1),
                    S.mul(pair.g, S.add(S.mul(a11, gp), S.mul(a12, fp))))
    lhs = S.sub(S.shift(S.mul(gp, d_m), 1), S.shift(S.mul(ff0.dg, m_prime), 1))
    return S.max_abs_diff_reliable(lhs, pair.g)


def tau_gradient_check(ctx, order: int) -> dict:
    """Central-difference tests of what the tau function generates.

    Returns a dict of defects: ``gradient`` for d(logT)/dt_n vs v_n
    (v_0 at n = 0), ``hessian`` for d(v_m)/dt_n vs -|mn| b(m,n) off the
    axes, +|m| b(m,0) on the n = 0 column and +|n| b(0,n) on the m = 0
    row, ``v0_t0`` for d(v_0)/dt_0 vs -2 b(0,0), ``hessian_symmetry`` for
    equality of mixed partials, and ``max`` over all of them.
    """
    order = int(order)
    eps = ctx.eps_fd
    table = ctx.table(order)
    # The tau function is the pair's, so logT and the v's are evaluated at
    # full lattice order; ``order`` only bounds which entries are compared
    # (a shorter lattice would freeze t_k v_k products that still vary).
    base = ctx.coords(ctx.pair.order)
    nonzero = [m for m in range(-order, order + 1) if m != 0]
    gradient, hessian = [], []
    v0_t0 = 0.0
    quotients: dict = {}
    for n in range(-order, order + 1):
        cp, cm = (toda_coordinates(p, ctx.h) for p in _probe_pairs(ctx, n))
        d_logt = (cp.logT - cm.logT) / (2.0 * eps)
        want = base.v0 if n == 0 else base.v[n]
        gradient.append(abs(d_logt - want))
        d_v0 = (cp.v0 - cm.v0) / (2.0 * eps)
        if n == 0:
            v0_t0 = abs(d_v0 + 2.0 * table.b00)
        else:
            hessian.append(abs(d_v0 - abs(n) * table.entry(0, n)))
        for m in nonzero:
            d_vm = (cp.v[m] - cm.v[m]) / (2.0 * eps)
            quotients[(m, n)] = d_vm
            if n == 0:
                want_mn = abs(m) * table.entry(m, 0)
            else:
                want_mn = -abs(m * n) * table.entry(m, n)
            hessian.append(abs(d_vm - want_mn))
    gradient, hessian = float(np.max(gradient)), float(np.max(hessian))
    symmetry = float(np.max([abs(quotients[(m, n)] - quotients[(n, m)])
                             for m in nonzero for n in nonzero]))
    return {
        "gradient": gradient,
        "hessian": hessian,
        "hessian_symmetry": symmetry,
        "v0_t0": v0_t0,
        "max": float(np.max([gradient, hessian, symmetry, v0_t0])),
    }
