"""Reflection-symmetric reductions and the boundary Green kernel.

A pair sits on the reflection-symmetric subfamily when f is the image of
g under the unit-circle reflection w -> 1/conj(g(1/conj(w))).  There the
exterior image domain carries a classical Dirichlet Green's function

    G_dom(z1, z2) = log |(G(z1) - G(z2)) / (G(z1) * conj(G(z2)) - 1)|,

with G the functional inverse of g, and the coordinate lattice collapses:
t(-n) = -conj(t(n)), v(-n) = -conj(v(n)), with t(0) and v0 real.

Subtracting the logarithmic singularity log|1/z1 - 1/z2| leaves a kernel
whose double expansion in z1^{-m} * conj(z2)^{-n} has finitely many
sources per entry.  Written through the lattice coefficient table,

    kernel(0,0) = -b00,      kernel(m,0) = b(m,0),
    kernel(0,n) = -b(-n,0),  kernel(m,n) = b(m,-n)    (m, n >= 1),

which is half the second-derivative table of log tau: each entry equals
the coefficient of z1^{-m} conj(z2)^{-n} in (1/2) D(z1) D(z2) log tau for
the generating operator D(z) = d/dt(0) + sum_n z^{-n}/n d/dt(n) (+ the
conjugate directions).  ``green_coefficients`` builds the left side from
the inverse map alone and ``green_identity_check`` compares the two —
a finite, coefficientwise form of an infinite hierarchy of constraints
on log tau.

Potentials enter the reflection checks only through a reality condition:
every monomial c * z1^mu * z2^{-nu} needs the partner
conj(c) * z1^nu * z2^{-mu}, so that H(z, 1/conj(z)) is real-valued.

The checks build no pair: they read the snapshot or pairing table that a
command built of the pair under test (`context.PairContext`).
"""

from __future__ import annotations

import cmath
from typing import Tuple

import numpy as np

from . import series as S
from .series import LaurentSeries, SeriesError
from .coords import TodaCoordinates
from .grunsky import GrunskyTable, _log2d


class SigmaAdmissibilityError(ValueError):
    """The potential breaks the reflection reality condition."""


def require_sigma_admissible(h) -> None:
    """Raise unless every monomial (mu, nu, c) has partner (nu, mu, conj(c))."""
    merged = {(mu, nu): c for mu, nu, c in h.terms}
    for (mu, nu), c in merged.items():
        partner = merged.get((nu, mu))
        if partner is None or abs(partner - np.conj(c)) > 1e-12 * max(1.0, abs(c)):
            raise SigmaAdmissibilityError("H not Σ-admissible")


def sigma_coordinate_check(snap: TodaCoordinates, h) -> float:
    """Largest reflection-reality defect of a snapshot's coordinates.

    Returns the max of |t(-n) + conj(t(n))|, |v(-n) + conj(v(n))| over
    1 <= n <= ``snap.order``, together with |Im t(0)| and |Im v0|: zero on a
    reflection pair under a Σ-admissible ``h``, and not on other pairs.
    """
    require_sigma_admissible(h)
    t, v = snap.t, snap.v
    defects = [abs(np.imag(t[0])), abs(np.imag(snap.v0))]
    for n in range(1, snap.order + 1):
        defects += [abs(t[-n] + np.conj(t[n])), abs(v[-n] + np.conj(v[n]))]
    return float(np.max(defects))


def green_coefficients(g: LaurentSeries, order: int) -> np.ndarray:
    """Kernel table of G_dom - log|1/z1 - 1/z2| from the inverse map alone:
    a read-only (N+1) x (N+1) array, N = ``order``, whose entry [m, n]
    multiplies z1^{-m} * conj(z2)^{-n}.  The conjugate block is implied by
    the Hermitian relation kernel[m, n] = conj(kernel[n, m]).

    With G the inverse of g and Gbar the series with conjugated
    coefficients, the two generating logs

        log((G(z1) - G(z2)) / (z1 - z2)),
        log((G(z1) * Gbar(y) - 1) / (z1 * y)),      y = conj(z2),

    are expanded as nested formal Laurent series.  The first contributes
    only its constant log(beta) to the stored table: its genuinely
    bivariate terms pair z1 with z2, not conj(z2), so they fall outside
    the stored index family.  The second is jointly a power series in
    1/z1 and 1/y and carries every remaining entry.  The stored windows
    of ``g`` are treated as exact map data, so each entry is exact up to
    roundoff (polynomial g loses nothing to truncation).
    """
    n_max = int(order)
    if n_max < 1:
        raise SeriesError(f"kernel order {n_max} must be >= 1")
    big_g = S.invert_function(g, n_max)  # down to z^(1 - n_max), the last u_i read
    beta = big_g.coeff(1)

    # G(z)/(beta z) = 1 + sum_{i>=1} u_i z^-i
    u = np.array([big_g.coeff(1 - i) / beta for i in range(1, n_max + 1)])
    w = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
    w[1:, 0] = u
    w[0, 1:] = np.conj(u)
    w[1:, 1:] = np.outer(u, np.conj(u))
    w[1, 1] -= 1.0 / (beta * np.conj(beta))
    l_mixed = _log2d(w)

    const_holo = cmath.log(beta)
    const_mixed = const_holo + cmath.log(np.conj(beta))
    kernel = -l_mixed
    kernel[0, 0] = const_holo - const_mixed
    kernel.setflags(write=False)
    return kernel


def green_identity_check(table: GrunskyTable, g: LaurentSeries, h) -> float:
    """The defect of `green_identity`, without the kernel table."""
    return green_identity(table, g, h)[0]


def green_identity(table: GrunskyTable, g: LaurentSeries, h) -> Tuple[float, np.ndarray]:
    """Max defect between the kernel table of ``g`` and its log-tau Hessian
    assembly from ``table``, the pairing table of a pair with that g, and
    the kernel table it was measured on; both at ``table.order``.

    The right side resolves (1/2) D(z1) D(z2) log tau coefficientwise
    into lattice-table entries,

        (0,0) -> -b00        (half of  d^2 logT / dt0^2 = -2 b00),
        (m,0) -> b(m,0),     (0,n) -> -b(-n,0),     (m,n) -> b(m,-n),

    and compares against ``green_coefficients``, which assumes f is the
    reflection image of g: on a pair off that subfamily the two sides
    differ.  The assembly never applies D(z) as a differential operator;
    the identity is independent of the potential, which is validated for
    the reflection reality condition and enters nothing else.
    """
    require_sigma_admissible(h)
    n_max = table.order
    left = green_coefficients(g, n_max)
    # right[m, n] = b(m, -n), with the 0-row -b(-n, 0) (and -b00 at its corner)
    right = table.b[n_max:, n_max::-1].copy()
    right[0] = -table.b[n_max::-1, n_max]
    return float(np.max(np.abs(left - right))), left


def real_subspace_check(snap: TodaCoordinates) -> float:
    """Largest imaginary part across t, v, v0 and logT of a snapshot.

    On pairs with real coefficients and a potential that is real on real
    arguments, every coordinate and log tau itself are real; the returned
    defect is the numerical distance from that subspace.
    """
    values = [snap.v0, snap.logT, *snap.t.values(), *snap.v.values()]
    return float(np.max(np.abs(np.imag(values))))
