"""Config fuzz: the 0/1/2 exit-code contract holds for any config.

Hypothesis draws config dicts of every pair kind, with coefficients at
the edges of the double range (0, +-1e300, subnormals), potentials with
zero exponents, and orders 4-8, and runs five commands on each through
`cli.main` in process.  Each must return 0, 1 or 2; an exception that
escapes `main` fails the test with its traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from dtoda import cli

EXTREMES = (0.0, 1e300, -1e300, 5e-324, -5e-324, 1e-310)
numbers = st.one_of(st.sampled_from(EXTREMES),
                    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
values = st.one_of(numbers, st.lists(numbers, min_size=2, max_size=2))


def _extras(lo, hi):
    return st.dictionaries(st.integers(lo, hi).map(str), values, max_size=3)


@st.composite
def pairs(draw):
    """A pair entry of each kind; coefficient pairs mostly normalised (a1 b = 1)."""
    kind = draw(st.sampled_from(["coefficients", "sigma_from_g", "random"]))
    if kind == "random":
        return {"random": {"seed": draw(st.integers(0, 40)),
                           "decay": draw(st.sampled_from([0.05, 0.3, 0.7])),
                           "real": draw(st.booleans())}}
    b = complex(draw(numbers), draw(st.one_of(st.just(0.0), numbers)))
    g = {**draw(_extras(-3, 0)), "1": [b.real, b.imag]}
    if kind == "sigma_from_g":
        return {"sigma_from_g": g}
    a1 = 1 / b if b and draw(st.booleans()) else complex(draw(numbers), draw(numbers))
    f = {**draw(_extras(2, 4)), "1": [a1.real, a1.imag]}
    return {"coefficients": {"g": g, "f": f}}


def _term(mu, nu, im=numbers):
    return st.fixed_dictionaries({"mu": mu, "nu": nu, "re": numbers, "im": im})


# a mixed first term (reflection-symmetric when mu = nu and im = 0), then
# terms with any exponents in -2..2, zero ones included
hamiltonians = st.tuples(
    st.integers(1, 2).flatmap(lambda mu: _term(st.just(mu), st.sampled_from([mu, 1, 2]),
                                               st.one_of(st.just(0.0), numbers))),
    st.lists(_term(st.integers(-2, 2), st.integers(-2, 2)), max_size=1),
).map(lambda t: [t[0], *t[1]])
configs = st.fixed_dictionaries({"hamiltonian": hamiltonians, "pair": pairs(),
                                 "order": st.integers(4, 8)})
check_triples = st.lists(st.sampled_from(sorted(cli.CHECKS)), min_size=3, max_size=3,
                         unique=True)


@settings(max_examples=40, deadline=None)
@given(configs, check_triples)
def test_any_config_exits_0_1_or_2(config, checks):
    with tempfile.TemporaryDirectory() as tmp:
        config = dict(config, outputs=[{"target": str(Path(tmp, "out.json")), "format": "json"},
                                       {"target": str(Path(tmp, "out.csv")), "format": "csv"}])
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(config))
        for argv in (["coords"], ["grunsky"], ["sigma"], ["special", "--mu", "1", "--nu", "1"],
                     ["verify", "--checks", ",".join(checks)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([argv[0], str(path), *argv[1:]])
            assert code in (0, 1, 2), (argv, code, err.getvalue())
