"""The windows, margins and probe orders that more than one reader shares.

A depth is how many terms a chain row, inverse or logarithm carries, a
window the exponents a consumer reads, a probe order how many modes a
check compares.  Chain rows, reciprocals and inverses are prefix-stable
(`series`): a deeper request moves no bit of a shallower one.  So a
reader asks for the depth it reads, written where it reads it, and a
rule here must pay for itself: a margin past what is read stays only if
dropping it moves an output, and its docstring names that output.
Depths inside a `series` kernel stay with the kernel.
"""


def halfwidth(pair, ms, order: int) -> int:
    """Residue windows of the moments (at order 0, of the flow denominators):
    the support, plus 32 to push clipped tails below 1e-13.  Without the 32,
    tau_gradient on the sigma fixture raises WindowUnderflowError at orders
    32 and 64, and random's at order 16 doubles (9.9e-16 -> 2.0e-15)."""
    spread = max((abs(mu) + abs(nu) for mu, nu, _ in ms.terms), default=1)
    return pair.order + order + 2 * spread + 32


def check_pad(pair) -> int:
    """u_n in coefficientwise checks: the quotient's tail decays at the rate of
    the denominator's zeros near the circle, not at the pair's.  Without the
    pad, string on the sigma fixture at order 16 reads 8.4e-10 (1.2e-16);
    without its 16, string moves at rounding level on verify-sigma16."""
    return 3 * pair.order + 16


def table_frame(pair, n_max: int):
    """Exponents a table's rows and weights are cut to: every exponent a
    pairing of P_n with a weight reads, plus 6.  Without the 6, of 64
    tables-poly64 configs faber_identity moves on 57 (by up to 70%),
    grunsky_symmetry on 32 (34%) and grunsky_dual_path on 21 (14%)."""
    reach = pair.order + n_max + 6
    return -reach, reach


def probe_order(order: int) -> int:
    """Battery's coordinate checks and the sigma report: the configured order
    governs the pair's richness, the probe how many modes a check compares.
    A value at a given mode does not depend on how many other modes are
    computed."""
    return min(order, 8)


def jacobian_order(order: int) -> int:
    """Jacobian tangent directions: the probe window, two modes inside the pair."""
    return min(8, order - 2)


def gradient_order(order: int) -> int:
    """Tau-gradient tangent directions and flow snapshots: a small table."""
    return min(4, order - 2)


def monomial_order(pair, mu: int, nu: int) -> int:
    """Monomial closed forms: their chains reach |mu| + |nu| past the mode."""
    return pair.order - abs(mu) - abs(nu) - 1
