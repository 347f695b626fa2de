"""The per-command context: each derived result is built once, and a
table whose build raises is not kept."""

import pytest

from dtoda import flows as F
from dtoda import grunsky as G
from dtoda import series as S
from dtoda.coords import toda_coordinates
from dtoda.hamiltonian import HamiltonianH

H = HamiltonianH.of((1, 1, 1.0))


def test_results_are_built_once_and_match_the_public_functions(fix_rand, context):
    ctx = context(fix_rand, H, order=4)
    assert ctx.table(4) is ctx.table(4)
    assert ctx.moments(8, ()) is ctx.moments(8, [])
    assert ctx.flow_fields((0,))[0] is ctx.flow_fields([0], (), 0)[0]
    assert ctx.flow_fields((0,), ((1, 0, 1.0),))[0] is not ctx.flow_fields((0,))[0]
    # the shared objects give the bits the standalone functions give
    assert ctx.coords(8) == toda_coordinates(fix_rand, H, 8)
    assert (ctx.table(4).b == G.grunsky_table(fix_rand, 4).b).all()
    shared, alone = ctx.flow_fields((2,))[2].dg, F.flow_field(fix_rand, H, 2).dg
    assert (shared.lo_exp, shared.reliable) == (alone.lo_exp, alone.reliable)
    assert (shared.coeffs == alone.coeffs).all()


def test_a_failed_build_is_not_kept(jouk_pair, context, monkeypatch):
    calls = []
    build = G.grunsky_table

    def counted(pair, order):
        calls.append(order)
        return build(pair, order)

    monkeypatch.setattr(G, "grunsky_table", counted)
    ctx = context(jouk_pair, H)  # g reliable down to w**-12: too short for the table
    for _ in range(2):
        with pytest.raises(S.WindowUnderflowError):
            ctx.table(12)
    assert calls == [12, 12]


def test_monomial_case_needs_a_unit_monomial(fix_id, context):
    ctx = context(fix_id, HamiltonianH.of((1, 1, 2.0)))
    with pytest.raises(ValueError, match="single unit-coefficient monomial"):
        ctx.monomial_case
