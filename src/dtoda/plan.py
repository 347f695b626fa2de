"""Every truncation depth, window and probe order outside the series kernels.

A depth is how many terms a chain row, inverse or logarithm carries, a
window the exponents a consumer reads, a probe order how many modes a
check compares.  Each rule is one function that gives its reason once;
depths inside a `series` kernel stay with the kernel.
"""


def halfwidth(pair, ms, order: int) -> int:
    """Residue windows of the moments (at order 0, of the flow denominators):
    the support, plus 32 to push clipped tails below 1e-13."""
    spread = max((abs(mu) + abs(nu) for mu, nu, _ in ms.terms), default=1)
    return pair.order + order + 2 * spread + 32


def monomial_depth(pair, ms, order: int) -> int:
    """Negative powers of the monomial closed forms: the moments' window and
    the order past it, with margin; the generating identities compare on it."""
    return halfwidth(pair, ms, order) + order + 8


def bracket_halfwidth(pair, ms) -> int:
    """Canonical bracket's partials: past the flow window, which it shifts."""
    return halfwidth(pair, ms, 0) + 4


def eval_depth(ms, window) -> int:
    """Powers of g and f substituted into a potential: reliable across the
    clip window after a term's powers shift it by up to the potential's
    spread on either side, with margin; at least 16."""
    spread = max((abs(mu) + abs(nu) for mu, nu, _ in ms.terms), default=0)
    return max(16, (window[1] - window[0]) + 2 * spread + 8)


def check_pad(pair) -> int:
    """u_n in coefficientwise checks: the quotient's tail decays at the rate of
    the denominator's zeros near the circle, not at the pair's."""
    return 3 * pair.order + 16


def table_frame(pair, n_max: int):
    """Exponents a table's rows are exact and clipped on: every exponent a
    pairing of P_n with a weight reads."""
    reach = pair.order + n_max + 6
    return -reach, reach


def inverse_depth(n_max: int) -> int:
    """Oracle table's inversions: corner entries limited by rounding only."""
    return 2 * n_max + 4


def green_inverse_depth(n_max: int) -> int:
    """Green kernel's inversion: entries up to ``n_max`` with margin."""
    return n_max + 4


def sigma_image_depth(order: int) -> int:
    """Reciprocal of a reflected germ: covers the stored image, [1, order + 1]
    or [-order, 1], with margin."""
    return order + 4


def sigma_pair_order(order: int) -> int:
    """Reflection pair of the reality check: its tail decays at the rate of
    its own nearest singularity, as slow as ~0.5 per exponent for moderate
    perturbations of w."""
    return max(3 * order, order + 32)


def green_pair_order(n_max: int) -> int:
    """Reflection pair of the Green identity: three times the table, so the
    image's truncation sits far below the comparison floor."""
    return 3 * n_max


def probe_order(order: int) -> int:
    """Battery's coordinate checks and the sigma report: the configured order
    governs the pair's richness, the probe a window every kind of pair
    certifies (a reflection pair's is narrower than its order).  A value
    at a given mode does not depend on how many other modes are computed."""
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
