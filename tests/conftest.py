"""Shared fixtures: the four standard pairs used across the test-suite, a
context factory, what the reflection checks read off a reflection pair, a
reader of a pair's chains and a pointwise evaluator."""

import numpy as np
import pytest

from dtoda import conformal_pair as CP
from dtoda import series as S
from dtoda.context import PairContext
from dtoda.coords import toda_coordinates
from dtoda.grunsky import grunsky_table
from dtoda.series import AT_INFINITY, LaurentSeries


@pytest.fixture(scope="session")
def fix_id():
    """Identity pair g = w, f = w at order 10."""
    return CP.from_coefficients({1: 1.0}, {1: 1.0}, order=10)


@pytest.fixture(scope="session")
def fix_rand():
    """The standard seeded perturbative pair."""
    return CP.random_pair(seed=7, decay=0.3, order=16)


@pytest.fixture(scope="session")
def fix_sig():
    """Reflection-symmetric pair built from g = w + 0.1/w at order 16."""
    g = LaurentSeries.from_pairs({1: 1.0, -1: 0.1}, AT_INFINITY)
    return CP.sigma_conjugate(g, order=16)


@pytest.fixture(scope="session")
def jouk_pair():
    """g is the functional inverse of z + 0.1/z (so G recovers it); f = w."""
    order = 12
    coeffs = {1: 1.0, -1: 0.1}
    coeffs.update({-k: 0.0 for k in range(2, order + 1)})
    s = LaurentSeries.from_pairs(coeffs, AT_INFINITY)
    g = S.invert_function(s, order + 1)
    arr = np.zeros(order + 1, dtype=np.complex128)
    arr[0] = 1.0
    f = LaurentSeries(1, arr, "AtZero")
    return CP.ConformalPair(g, f, order)


@pytest.fixture(scope="session")
def context():
    """Factory of a `PairContext` with the config defaults; ``order`` (the
    table order) defaults to the pair's."""
    def build(pair, h, gauge=(), order=None):
        return PairContext(pair, h, gauge, pair.order if order is None else order)
    return build


@pytest.fixture(scope="session")
def reflection():
    """(snapshot, pairing table) at ``order`` of the reflection pair
    ``sigma_conjugate(g)`` built at ``depth`` (default: ``order``), under
    ``h``: what `reductions.sigma_coordinate_check` and
    `reductions.green_identity_check` read."""
    def build(g, h, order, depth=None):
        pair = CP.sigma_conjugate(g, order=depth or order)
        return toda_coordinates(pair, h, order), grunsky_table(pair, order)
    return build


@pytest.fixture(scope="session")
def chain_lengths():
    """{(germ, sign): rows} of every chain a pair's g and f keep (`series._chain`)."""
    def lengths(pair):
        return {(side, s): len(vars(getattr(pair, side))[("powers", s)].sizes)
                for side in "gf" for s in (1, -1) if ("powers", s) in vars(getattr(pair, side))}
    return lengths


@pytest.fixture(scope="session")
def eval_at_points():
    """Evaluator of a series' stored window at complex points, by Horner's
    rule: a reference independent of the FFT sampling of the circle division."""
    def evaluate(a, pts):
        pts = np.asarray(pts, dtype=np.complex128)
        vals = np.full(pts.shape, a.coeffs[-1], dtype=np.complex128)
        for c in a.coeffs[-2::-1]:
            vals = vals * pts + c
        return vals * pts ** float(a.lo_exp) if a.lo_exp else vals
    return evaluate
