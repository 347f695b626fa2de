"""Command-line contract: config validation, exit codes, determinism.

Every numeric value asserted here was measured through the library
before being written down; the CLI layer must reproduce it byte for
byte on repeated runs.
"""

import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dtoda import cli
from dtoda import series as S
from dtoda.cli import CHECKS, ConfigError, load_config, run_checks

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(argv):
    """Run ``dtoda`` in a fresh interpreter: exit code, stdout and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "dtoda.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def write_config(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def identity_payload():
    return json.loads((CONFIGS / "fixture_identity.json").read_text())


# ---------------------------------------------------------------------------
# config loading


def test_fixture_configs_load():
    ident = load_config(str(CONFIGS / "fixture_identity.json"))
    rand = load_config(str(CONFIGS / "fixture_random.json"))
    sig = load_config(str(CONFIGS / "fixture_sigma.json"))
    assert len(ident.tolerances) == len(CHECKS) == 19
    assert len(rand.tolerances) == 16
    assert len(sig.tolerances) == 13
    assert ident.terms == ((1, 1, 1 + 0j),)
    assert rand.pair_kind == "random" and sig.pair_kind == "sigma_from_g"


def test_gauge_terms_split_off(tmp_path):
    payload = identity_payload()
    payload["hamiltonian"] += [
        {"mu": 1, "nu": 0, "re": 1.0, "im": 0.0},
        {"mu": 0, "nu": -2, "re": 0.5, "im": -0.25},
    ]
    config = load_config(write_config(tmp_path, payload))
    assert config.terms == ((1, 1, 1 + 0j),)
    assert config.gauge == ((1, 0, 1 + 0j), (0, -2, 0.5 - 0.25j))


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"hamiltonian": [}')
    with pytest.raises(ConfigError, match="line 1 column"):
        load_config(str(path))


@pytest.mark.parametrize("mangle,field", [
    (lambda p: p.update(order=3), "order"),
    (lambda p: p.update(order="ten"), "order"),
    (lambda p: p.update(samples_M=100), "samples_M"),
    (lambda p: p.update(samples_M=32), "samples_M"),
    (lambda p: p.update(eps_fd=0.5), "eps_fd"),
    (lambda p: p.update(eps_fd=1e-9), "eps_fd"),
    (lambda p: p.update(tolerances={"bogus": 1e-9}), "tolerances.bogus"),
    (lambda p: p.update(tolerances={"string": -1.0}), "tolerances.string"),
    (lambda p: p.update(hamiltonian=[]), "hamiltonian"),
    (lambda p: p.update(hamiltonian=[{"mu": 0, "nu": 0, "re": 1.0}]),
     "hamiltonian"),
    (lambda p: p.update(hamiltonian=[{"mu": 1, "nu": 0, "re": 1.0}]),
     "hamiltonian"),
    (lambda p: p.update(pair={}), "pair"),
    (lambda p: p.update(pair={"random": {"seed": 1, "decay": 0.3},
                              "sigma_from_g": {"1": 1.0}}), "pair"),
    (lambda p: p.update(pair={"random": {"seed": 1, "decay": 1.5}}),
     "pair.random.decay"),
    (lambda p: p.update(outputs=[{"target": "x", "format": "xml"}]),
     "outputs"),
    (lambda p: p.update(unknown_key=1), "unknown"),
])
def test_malformed_fields_are_named(tmp_path, mangle, field):
    payload = identity_payload()
    mangle(payload)
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        load_config(write_config(tmp_path, payload))


def test_config_without_samples_loads_at_order_128(tmp_path):
    payload = identity_payload()
    del payload["samples_M"]
    payload["order"] = 128  # an explicit samples_M would need >= 4*(2*128+1) = 1028
    assert load_config(write_config(tmp_path, payload)).order == 128


def test_samples_is_validated_and_read_by_no_check(tmp_path, capsys):
    """A valid ``samples_M`` changes no byte of ``verify``; an invalid one is
    still a malformed config."""
    payload = json.loads((CONFIGS / "fixture_sigma.json").read_text())
    reports = []
    for samples in (1024, 4096):
        target = tmp_path / f"report_{samples}.json"
        payload.update(samples_M=samples, outputs=[{"target": str(target), "format": "json"}])
        code, out, _ = run_cli(["verify", write_config(tmp_path, payload)], capsys)
        reports.append((code, out, target.read_bytes()))
    assert reports[0] == reports[1]
    for bad in ({"samples_M": 100}, {"samples_M": 32}, {"order": 128, "samples_M": 1024}):
        code, out, err = run_cli(["verify", write_config(tmp_path, dict(payload, **bad))],
                                 capsys)
        assert code == 2 and out == "" and "samples_M" in err, bad


def test_explicit_samples_below_the_bound_still_fails(tmp_path):
    payload = identity_payload()
    payload.update(order=128, samples_M=1024)
    with pytest.raises(ConfigError, match="samples_M.*1028"):
        load_config(write_config(tmp_path, payload))


SUBCOMMANDS = [["coords"], ["grunsky"], ["sigma"], ["verify"],
               ["special", "--mu", "1", "--nu", "1"],
               ["flow", "--n", "1", "--eps", "1e-3", "--steps", "1"]]


def _nan_coefficient(p):
    p["pair"]["coefficients"]["g"]["-1"] = float("nan")


def _infinite_coefficient(p):
    p["pair"]["coefficients"]["f"]["2"] = float("inf")


def _nan_hamiltonian(p):
    p["hamiltonian"][0]["re"] = float("nan")


@pytest.mark.parametrize("mangle", [_nan_coefficient, _infinite_coefficient,
                                    _nan_hamiltonian])
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: a[0])
def test_non_finite_config_numbers_are_rejected(tmp_path, capsys, argv, mangle):
    payload = identity_payload()
    mangle(payload)
    path = write_config(tmp_path, payload)   # json writes NaN / Infinity tokens
    code, out, err = run_cli([argv[0], path, *argv[1:]], capsys)
    assert code == 2 and out == ""
    assert err.startswith("dtoda: error: config field ") and "finite" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_log_obstruction_rejected_at_load(tmp_path):
    payload = identity_payload()
    payload["hamiltonian"].append({"mu": -1, "nu": -1, "re": 1.0})
    with pytest.raises(ConfigError, match="hamiltonian"):
        load_config(write_config(tmp_path, payload))


# ---------------------------------------------------------------------------
# verify command


def test_verify_identity_full_battery(capsys):
    code, out, err = run_cli(
        ["verify", str(CONFIGS / "fixture_identity.json")], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verify: 19/19 checks passed"
    assert all(" PASS" in line for line in lines[:-1])
    # residual and tolerance both appear on every check line
    assert all("residual=" in line and "tolerance=" in line
               for line in lines[:-1])
    # timings go to stderr only
    assert "total:" in err and "total:" not in out


def test_verify_reports_are_byte_identical(capsys):
    argv = ["verify", str(CONFIGS / "fixture_identity.json")]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().splitlines()[-1] == "verify: 19/19 checks passed"


def test_verify_thread_count_does_not_change_output(capsys, monkeypatch):
    # The battery is sequential and DTODA_THREADS is ignored: setting it
    # to any value must leave the report unchanged.
    argv = ["verify", str(CONFIGS / "fixture_sigma.json")]
    monkeypatch.setenv("DTODA_THREADS", "1")
    _, out1, _ = run_cli(argv, capsys)
    monkeypatch.setenv("DTODA_THREADS", "3")
    _, out3, _ = run_cli(argv, capsys)
    monkeypatch.delenv("DTODA_THREADS")
    _, out_unset, _ = run_cli(argv, capsys)
    assert out1 == out3 == out_unset
    assert out1.strip().splitlines()[-1] == "verify: 13/13 checks passed"


def test_zero_tolerance_fails_with_exit_1(tmp_path, capsys):
    # the random pair's jacobian residual is rounding, not 0.0 as on identity
    payload = json.loads((CONFIGS / "fixture_random.json").read_text())
    payload["tolerances"] = {"jacobian": 0.0}
    code, out, _ = run_cli(["verify", write_config(tmp_path, payload)],
                           capsys)
    assert code == 1
    assert "jacobian" in out and "FAIL" in out
    assert out.strip().splitlines()[-1] == "verify: 0/1 checks passed"


def test_unknown_check_name_is_usage_error(capsys):
    code, _, err = run_cli(
        ["verify", str(CONFIGS / "fixture_identity.json"),
         "--checks", "bogus_name"], capsys)
    assert code == 2
    assert "bogus_name" in err


def test_empty_check_selection_is_usage_error(capsys):
    config = load_config(str(CONFIGS / "fixture_identity.json"))
    with pytest.raises(ConfigError, match="^--checks must name at least one check$"):
        cli.cmd_verify(config, [])
    code, out, err = run_cli(
        ["verify", str(CONFIGS / "fixture_identity.json"), "--checks", ","], capsys)
    assert (code, out) == (2, "")
    assert err == "dtoda: error: --checks must name at least one check\n"


@pytest.mark.parametrize("other", ["01", "+1", " 1"])
def test_two_keys_naming_one_exponent_are_rejected(tmp_path, capsys, other):
    payload = identity_payload()
    payload["pair"]["coefficients"]["g"] = {"1": 1.0, other: 2.0}
    code, out, err = run_cli(["coords", write_config(tmp_path, payload)], capsys)
    assert (code, out) == (2, "")
    assert err == ("dtoda: error: config field 'pair.coefficients.g': "
                   "two keys name exponent 1\n")


def test_checks_flag_subsets_battery(capsys):
    code, out, _ = run_cli(
        ["verify", str(CONFIGS / "fixture_identity.json"),
         "--checks", "string,plemelj"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "verify: 2/2 checks passed"


def test_random_battery_passes():
    config = load_config(str(CONFIGS / "fixture_random.json"))
    results = run_checks(config)
    assert [r["name"] for r in results] == sorted(config.tolerances)
    assert all(r["passed"] for r in results)


def _fixture_outputs():
    """(fixture, check, residual bits, error type) of the whole battery and the
    stdout of coords and grunsky, on each fixture config."""
    out = []
    for name in ("identity", "random", "sigma"):
        config = load_config(str(CONFIGS / f"fixture_{name}.json"))
        out += [(name, r["name"], r["residual"].hex(), r["error"].split(":")[0])
                for r in run_checks(config, list(CHECKS))]
        for cmd in (cli.cmd_coords, cli.cmd_grunsky):
            stdout = io.StringIO()
            out.append((name, cmd.__name__, cmd(config, stdout=stdout), stdout.getvalue()))
    return out


def test_deeper_chain_rows_move_no_output(monkeypatch):
    """Every reader asks for the depth it reads through one entry,
    `series._chain_rows` (`int_pow`, the blocks of `Rows.chain` and the
    inversions), and a deeper row starts with the same bits: rows 8 local
    orders deeper than asked, scaled by c**-k on read for a negative chain,
    move no residual, error type or stdout byte."""
    want = _fixture_outputs()
    real = S._chain_rows
    monkeypatch.setattr(S, "_chain_rows", lambda a, n, depth: real(
        a, n, None if depth is None else depth + 8))
    assert _fixture_outputs() == want


def test_table_checks_share_the_pair_chains_at_the_depths_they_read(monkeypatch):
    """The three table checks on an order-64 polynomial pair read f^-k at
    depth 2N and no further (2N + 1 terms: the table's pairings on [-N, N],
    the expansion identities and the f inversion), g^-k from w**-N up (N
    terms), and every inversion reads the pair's own chains."""
    g = {1: 1.03 + 0.02j, 0: 0.1 - 0.05j, -1: 0.05 + 0.04j, -2: -0.03 + 0.02j}
    f = {1: 1 / (1.03 + 0.02j), 2: 0.05 - 0.03j, 3: 0.03 + 0.02j}
    pair = cli.CP.from_coefficients(g, f, 64)
    inside, chains = [], []
    invert, chain = S.invert_function, S._chain

    def inverting(a, depth=None):
        inside.append(a)
        try:
            return invert(a, depth)
        finally:
            inside.pop()

    monkeypatch.setattr(S, "invert_function", inverting)
    monkeypatch.setattr(S, "_chain", lambda a, s, tops, x: (
        chains.append(a) if inside else None) or chain(a, s, tops, x))
    monkeypatch.setattr(cli.ExperimentConfig, "context", lambda self: cli.PairContext(
        pair, self.hamiltonian(), self.gauge, pair.order))
    names = ["grunsky_symmetry", "grunsky_dual_path", "faber_identity"]
    results = run_checks(load_config(str(CONFIGS / "fixture_identity.json")), names)
    assert [r["error"] for r in results] == [""] * 3
    assert set(vars(pair.f)[("powers", -1)].sizes) == {2 * 64 + 1}
    assert set(vars(pair.g)[("powers", -1)].sizes) == {64}
    assert len(inside) == 0 and len(chains) >= 2
    assert all(a is pair.g or a is pair.f for a in chains)


def test_table_checks_near_the_edge_of_the_domain(tmp_path):
    """The reflection pair of g = w + 0.8/w at order 32 with no tolerance map:
    its table entries reach 8.5e12, so grunsky_symmetry and faber_identity
    read the rounding of the largest entries (9.8e-4 and 10.6; 2.6e-2 and 85
    when the table paired P_n with the weights g^(m-1) g' and f^(-m-1) f')."""
    payload = json.loads((CONFIGS / "fixture_sigma.json").read_text())
    payload.update(pair={"sigma_from_g": {"1": 1.0, "-1": 0.8}}, order=32, tolerances={})
    results = run_checks(load_config(write_config(tmp_path, payload)),
                         ["grunsky_symmetry", "faber_identity"])
    assert [r["error"] for r in results] == ["", ""]
    residual = {r["name"]: r["residual"] for r in results}
    assert residual["grunsky_symmetry"] <= 2e-3
    assert residual["faber_identity"] <= 20


def test_coords_reads_f_down_where_its_residue_with_m2_reaches(monkeypatch):
    """`coords` at order 64 on a polynomial pair builds f**-4..f**-64 only
    as deep as res(M2 f**-k) reads them, through w**(-1 - M2.lo): log tau
    composes no f**-k, so (-width, width) does not reach them (229 terms).
    f**-1..f**-3 are the potential's, read along (-width, width)."""
    g = {1: 1.03 + 0.02j, 0: 0.1 - 0.05j, -1: 0.05 + 0.04j, -2: -0.03 + 0.02j}
    f = {1: 1 / (1.03 + 0.02j), 2: 0.05 - 0.03j, 3: 0.03 + 0.02j}
    pair = cli.CP.from_coefficients(g, f, 64)
    monkeypatch.setattr(cli.ExperimentConfig, "context", lambda self: cli.PairContext(
        pair, self.hamiltonian(), self.gauge, pair.order))
    config = dataclasses.replace(load_config(str(CONFIGS / "fixture_identity.json")), order=64)
    assert cli.cmd_coords(config, stdout=io.StringIO()) == 0
    mo = cli.C.Moments(pair, config.hamiltonian(), 64)
    reach = -1 - mo.m[1].lo_exp + 64  # the depth of f**-1..f**-64 read through -1 - M2.lo
    sizes = vars(pair.f)[("powers", -1)].sizes
    assert len(sizes) == 64 and max(sizes[3:]) == reach + 1 < mo.width + 64 + 1 == 229


def test_config_gauge_feeds_the_battery(tmp_path):
    payload = identity_payload()
    payload["hamiltonian"] += [
        {"mu": 1, "nu": 0, "re": 1.0},
        {"mu": 0, "nu": -2, "re": 0.5, "im": -0.25},
    ]
    config = load_config(write_config(tmp_path, payload))
    results = run_checks(config, ["gauge_covariance", "string",
                                  "t0_duality", "plemelj"])
    assert all(r["residual"] == 0.0 for r in results)


def test_config_gauge_shifts_the_coords_report(tmp_path):
    """`cmd_coords` on the (1, 1) core plus one-variable monomials on both
    variables, with both exponent signs and one repeated, reports the plain
    config's t and v plus `gauge_shift_constants`, and its t0, v0 and logT."""
    payload = json.loads((CONFIGS / "fixture_random.json").read_text())
    plain = load_config(write_config(tmp_path, payload, "plain.json"))
    payload["hamiltonian"] += [
        {"mu": 2, "nu": 0, "re": 1.0},
        {"mu": -1, "nu": 0, "re": 0.5, "im": 0.25},
        {"mu": 0, "nu": 1, "re": -0.75},
        {"mu": 0, "nu": -2, "re": 0.5, "im": -0.25},
        {"mu": 2, "nu": 0, "re": 0.25},
    ]
    gauged = load_config(write_config(tmp_path, payload, "gauged.json"))
    docs = []
    for config in (plain, gauged):
        out = io.StringIO()
        assert cli.cmd_coords(config, stdout=out) == 0
        docs.append(json.loads(out.getvalue()))
    t_shift, v_shift, _ = cli.gauge_shift_constants(gauged.gauge, gauged.order)
    assert {n: z for n, z in t_shift.items() if z} == {2: 1.25, -1: 0.75}
    assert {n: z for n, z in v_shift.items() if z} == {1: -0.5 - 0.25j, -2: 1 - 0.5j}
    for key, shift in (("t", t_shift), ("v", v_shift)):
        assert docs[0][key].keys() == docs[1][key].keys() == {str(n) for n in shift}
        for n, z in shift.items():
            moved = complex(*docs[1][key][str(n)]) - complex(*docs[0][key][str(n)])
            assert abs(moved - z) <= 1e-12, (key, n)
    for key in ("t0", "v0", "logT"):
        assert abs(complex(*docs[1][key]) - complex(*docs[0][key])) <= 1e-12, key


# ---------------------------------------------------------------------------
# report commands


def test_coords_sigma_snapshot(capsys):
    code, out, _ = run_cli(
        ["coords", str(CONFIGS / "fixture_sigma.json")], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["t0"][0] == pytest.approx(0.99, abs=1e-12)
    assert doc["t0"][1] == 0.0
    assert doc["t"]["2"][0] == pytest.approx(0.05, abs=1e-12)
    # reflection reality: t_{-n} = -conj(t_n)
    assert doc["t"]["-2"][0] == pytest.approx(-0.05, abs=1e-12)
    # the reflected pair is exact, so the snapshot is at the config order
    assert doc["order"] == 16


def test_coords_outputs_files(tmp_path, capsys):
    payload = identity_payload()
    payload["outputs"] = [
        {"target": str(tmp_path / "snap.json"), "format": "json"},
        {"target": str(tmp_path / "snap.csv"), "format": "csv"},
    ]
    code, out, _ = run_cli(["coords", write_config(tmp_path, payload)],
                           capsys)
    assert code == 0
    doc = json.loads((tmp_path / "snap.json").read_text())
    assert doc == json.loads(out)
    assert doc["t0"] == [1.0, 0.0] and doc["v0"] == [-1.0, 0.0]
    assert doc["logT"][0] == pytest.approx(-0.75, abs=1e-12)
    rows = (tmp_path / "snap.csv").read_text().splitlines()
    assert rows[0] == "n,t_re,t_im,v_re,v_im"
    assert len(rows) == 2 * doc["order"] + 2


def test_grunsky_identity_tail_entries(tmp_path, capsys):
    payload = identity_payload()
    payload["outputs"] = [
        {"target": str(tmp_path / "table.json"), "format": "json"}]
    code, _, _ = run_cli(["grunsky", write_config(tmp_path, payload)],
                         capsys)
    assert code == 0
    doc = json.loads((tmp_path / "table.json").read_text())
    assert doc["b00"] == [0.0, 0.0]
    assert doc["symmetry_defect"] == 0.0
    entries = doc["entries"]
    assert entries["1,-1"][0] == pytest.approx(1.0, abs=1e-12)
    assert entries["2,-2"][0] == pytest.approx(0.5, abs=1e-12)
    assert entries["1,1"] == [0.0, 0.0]


def test_flow_trajectory_shape(capsys):
    code, out, _ = run_cli(
        ["flow", str(CONFIGS / "fixture_identity.json"),
         "--n", "1", "--eps", "0.01", "--steps", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "rk4" and doc["direction"] == 1
    assert [p["step"] for p in doc["trajectory"]] == [0, 1, 2]
    for point in doc["trajectory"]:
        assert point["t0"][0] == pytest.approx(1.0, abs=1e-9)


def test_flow_rejects_nonpositive_steps(capsys):
    code, _, err = run_cli(
        ["flow", str(CONFIGS / "fixture_identity.json"),
         "--n", "1", "--eps", "0.01", "--steps", "0"], capsys)
    assert code == 2
    assert "steps" in err


@pytest.mark.parametrize("n", ["11", "-11"])
def test_flow_rejects_direction_beyond_order(n):
    # fixture_identity has order 10: a malformed command line, not a failed computation
    code, out, err = run_cli_process(
        ["flow", str(CONFIGS / "fixture_identity.json"),
         "--n", n, "--eps", "1e-3", "--steps", "1"])
    assert code == 2 and out == ""
    assert "--n" in err and "Traceback" not in err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_flow_rejects_nonfinite_eps(eps):
    code, _, err = run_cli_process(
        ["flow", str(CONFIGS / "fixture_identity.json"),
         "--n", "1", "--eps", eps, "--steps", "1"])
    assert code == 2
    assert "eps" in err and "Traceback" not in err


@pytest.mark.parametrize("mu, nu", [(0, 1), (1, 0), (10, 5)])
def test_special_rejects_bad_exponents(mu, nu):
    # fixture_sigma has order 16: (10, 5) leaves no coordinate window
    code, _, err = run_cli_process(
        ["special", str(CONFIGS / "fixture_sigma.json"),
         "--mu", str(mu), "--nu", str(nu)])
    assert code == 2
    assert "dtoda: error:" in err and "Traceback" not in err


def test_sigma_report(capsys):
    code, out, _ = run_cli(
        ["sigma", str(CONFIGS / "fixture_sigma.json")], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["reality_defect"] <= 1e-10
    assert doc["green_identity_defect"] <= 1e-10


def test_sigma_rejects_inadmissible_potential(tmp_path):
    payload = json.loads((CONFIGS / "fixture_sigma.json").read_text())
    payload["hamiltonian"] = [{"mu": 2, "nu": 1, "re": 1.0}]
    code, _, err = run_cli_process(["sigma", write_config(tmp_path, payload)])
    assert code == 2
    assert "'hamiltonian'" in err and "Traceback" not in err


def test_sigma_rejects_complex_b_of_random_pair():
    code, _, err = run_cli_process(
        ["sigma", str(CONFIGS / "fixture_random.json")])
    assert code == 2
    assert "real leading coefficient b" in err and "Traceback" not in err


def test_sigma_from_g_with_complex_b_names_b(tmp_path):
    payload = json.loads((CONFIGS / "fixture_sigma.json").read_text())
    payload["pair"] = {"sigma_from_g": {"1": [1.0, 0.2], "-1": 0.1}}
    code, _, err = run_cli_process(["sigma", write_config(tmp_path, payload)])
    assert code == 2
    assert "config field 'pair'" in err
    assert "real leading coefficient b, got b = (1+0.2j)" in err
    assert "a1·b" not in err


def test_sigma_from_a_g_that_is_not_univalent_exits_2(tmp_path):
    # g = w + 2/w reflects to f = w/(1 + 2 w^2): poles at |w| = 0.707
    payload = json.loads((CONFIGS / "fixture_sigma.json").read_text())
    payload["pair"] = {"sigma_from_g": {"1": 1.0, "-1": 2.0}}
    code, out, err = run_cli_process(["verify", write_config(tmp_path, payload)])
    assert (code, out) == (2, "")
    assert err.startswith("dtoda: error: config field 'pair': ")
    assert "pole at |w| = 0.707107" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("order", [16, 32, 64])
def test_sigma_fixture_runs_every_check_without_underflow(tmp_path, order):
    payload = json.loads((CONFIGS / "fixture_sigma.json").read_text())
    payload["order"] = order
    results = run_checks(load_config(write_config(tmp_path, payload)), sorted(CHECKS))
    assert [(r["name"], r["error"]) for r in results if r["error"]] == []
    # generating_identity's monomial order is the pair's order less |mu| + |nu| + 1,
    # short of where its residual falls below 1e-9 (5.4e-5 at 16, 4.0e-8 at 32)
    assert [r["name"] for r in results if not r["passed"]] == (
        ["generating_identity"] if order < 64 else [])


def test_special_report_sigma_case(capsys):
    code, out, _ = run_cli(
        ["special", str(CONFIGS / "fixture_sigma.json"),
         "--mu", "1", "--nu", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["t0"][0] == pytest.approx(0.99, abs=1e-12)
    assert doc["nontrivial_identity"] <= 1e-9
    assert abs(doc["special_logtau"][0] - doc["general_logT"][0]) <= 1e-9


def test_special_underflow_is_one_line(tmp_path):
    # g = w + 2/w is not univalent: its closed form leaves the window it reads
    payload = identity_payload()
    payload["pair"] = {"coefficients": {"g": {"1": 1.0, "-1": 2.0}, "f": {"1": 1.0}}}
    payload["order"] = 4
    code, _, err = run_cli_process(
        ["special", write_config(tmp_path, payload), "--mu", "1", "--nu", "1"])
    assert code == 1
    assert err.startswith("dtoda: computation failed: window underflow")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_green_identity_on_order32_sigma_pair(tmp_path):
    payload = json.loads((CONFIGS / "fixture_sigma.json").read_text())
    payload["order"] = 32
    config = load_config(write_config(tmp_path, payload))
    [result] = run_checks(config, ["green_identity"])
    assert result["error"] == "" and result["passed"]


TABLE_CHECKS = ["faber_identity", "grunsky_dual_path", "grunsky_symmetry",
                "lax"]


def test_battery_builds_the_table_once(monkeypatch):
    calls = []
    build = cli.G.grunsky_table

    def counted(pair, order):
        calls.append(order)
        return build(pair, order)

    monkeypatch.setattr(cli.G, "grunsky_table", counted)
    config = load_config(str(CONFIGS / "fixture_random.json"))
    results = run_checks(config, TABLE_CHECKS)
    assert calls == [config.order]
    assert all(r["passed"] for r in results)


def _counting(calls, key, fn, *, when=lambda *a, **k: True):
    def counted(*args, **kwargs):
        if when(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
        return fn(*args, **kwargs)
    return counted


def _count_directions(monkeypatch):
    """Every flow direction built, as one list of (n, pad) per `flows.flow_fields` call."""
    built, fields = [], cli.F.flow_fields
    signature = inspect.signature(fields)

    def counted(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        built.append([(n, call.arguments["pad"]) for n in call.arguments["ns"]])
        return fields(*args, **kwargs)

    monkeypatch.setattr(cli.F, "flow_fields", counted)
    return built


def _count_moments(monkeypatch):
    """Every moment object built, as (pair, order, potential + gauge terms)."""
    built = []

    class Counted(cli.C.Moments):
        def __init__(self, pair, h, order):
            super().__init__(pair, h, order)
            built.append((pair, order, h.terms))

    monkeypatch.setattr(cli.C, "Moments", Counted)
    return built


def test_battery_builds_the_snapshot_once(monkeypatch):
    calls = {}
    monkeypatch.setattr(cli.C, "snapshot",
                        _counting(calls, "snapshot", cli.C.snapshot))
    for name in ("toda_coordinates", "time_variables", "v_zero"):
        monkeypatch.setattr(cli.C, name,
                            _counting(calls, name, getattr(cli.C, name)))
    built = _count_moments(monkeypatch)
    config = load_config(str(CONFIGS / "fixture_sigma.json"))
    results = run_checks(config, ["gauge_covariance", "real_subspace",
                                  "z2_closed_form"])
    assert all(r["passed"] for r in results), results
    # one order-8 snapshot, on the context's moments at orders 8 and 16
    # (v_0), plus the gauge-dressed side of gauge_covariance at both orders;
    # nothing goes through the public coordinate functions
    assert calls == {"snapshot": 1}
    assert sorted((order, len(terms)) for _, order, terms in built) == [
        (8, 1), (8, 3), (16, 1), (16, 3)]


def test_reflection_checks_and_sigma_build_only_the_configured_pair(monkeypatch):
    # the reflection checks and the sigma report read the snapshot and the
    # table of the context's pair; they build no reflection pair of their own
    calls = {}
    pair_type = cli.CP.ConformalPair
    monkeypatch.setattr(pair_type, "__post_init__",
                        _counting(calls, "pairs", pair_type.__post_init__))
    config = load_config(str(CONFIGS / "fixture_sigma.json"))
    results = run_checks(config, ["green_identity", "real_subspace", "sigma_reality"])
    assert all(r["passed"] for r in results), results
    assert calls == {"pairs": 1}
    calls.clear()
    assert cli.cmd_sigma(config, stdout=io.StringIO()) == 0
    assert calls == {"pairs": 1}


def test_reflection_checks_fail_off_the_reflection_subfamily(tmp_path):
    # f = w is real but not the reflection image w / (1 + 0.1 w**2) of
    # g = w + 0.1/w: the two reflection checks FAIL by residual, where the
    # real-subspace check passes; the same g as sigma_from_g passes all three
    names = ["green_identity", "real_subspace", "sigma_reality"]
    g = {"1": 1.0, "-1": 0.1}
    payload = {"hamiltonian": [{"mu": 1, "nu": 1, "re": 1.0}], "order": 16}
    reports = {}
    for kind, pair in [("off", {"coefficients": {"g": g, "f": {"1": 1.0}}}),
                       ("on", {"sigma_from_g": g})]:
        config = load_config(write_config(tmp_path, dict(payload, pair=pair)))
        results = run_checks(config, names)
        assert all(r["error"] == "" for r in results), results
        out = io.StringIO()
        assert cli.cmd_sigma(config, stdout=out) == 0
        reports[kind] = ({r["name"]: r["residual"] for r in results},
                         json.loads(out.getvalue()))
    (off, off_report), (on, on_report) = reports["off"], reports["on"]
    assert off["real_subspace"] == 0.0
    assert 0.05 < off["sigma_reality"] < 0.2 and 0.05 < off["green_identity"] < 0.2
    assert (off_report["reality_defect"], off_report["green_identity_defect"]) == (
        off["sigma_reality"], off["green_identity"])
    assert max(on.values()) <= 1e-10
    assert max(on_report["reality_defect"], on_report["green_identity_defect"]) <= 1e-10


@pytest.mark.parametrize("fixture", ["random", "sigma"])
def test_battery_builds_each_moment_object_once(monkeypatch, fixture):
    built = _count_moments(monkeypatch)
    config = load_config(str(CONFIGS / f"fixture_{fixture}.json"))
    run_checks(config, sorted(CHECKS))
    keys = [(id(pair), order, terms) for pair, order, terms in built]
    assert len(keys) == len(set(keys)), "a moment object was built twice"
    # the context's own: tau_gradient's targets, the probe snapshot, v_0
    # and the monomial window
    pair = built[0][0]
    assert sorted(order for p, order, terms in built
                  if p is pair and terms == config.terms) == [4, 8, 13, 16]


@pytest.mark.parametrize("fixture, names, count", [
    ("sigma", None, 2), ("random", sorted(CHECKS), 3)])
def test_battery_builds_log_tau_j_part_once_per_moment_object(monkeypatch, fixture, names, count):
    # Z3 reads no t or v, so the closed form and the snapshot of one moment
    # object share it: one J pair per moment object that log tau reads
    calls = {}
    monkeypatch.setattr(cli.C, "j_pair", _counting(calls, "j_pair", cli.C.j_pair))
    run_checks(load_config(str(CONFIGS / f"fixture_{fixture}.json")), names)
    assert calls == {"j_pair": count}


def test_battery_reads_the_canonical_bracket_once_in_lax(monkeypatch):
    calls = {}
    monkeypatch.setattr(cli.F, "canonical_bracket_check",
                        _counting(calls, "bracket", cli.F.canonical_bracket_check))
    built = _count_directions(monkeypatch)
    config = load_config(str(CONFIGS / "fixture_random.json"))
    results = run_checks(config)
    assert all(r["passed"] for r in results), results
    calls["padded_n0"] = sum(1 for batch in built for n, pad in batch if n == 0 and pad > 0)
    # once inside lax, once as its own check; and the padded n = 0 field
    # that lax (per index), canonical_bracket and string read is built once
    assert calls == {"bracket": 2, "padded_n0": 1}


def test_lax_builds_its_padded_fields_in_one_batch(monkeypatch):
    # lax asks for its six directions and n = 0 in one padded
    # `flows.flow_fields` call; the battery runs it before string and
    # canonical_bracket, which read its n = 0, so it is the only padded
    # batch there too, and jacobian's plain batch is the other: two in all
    built = _count_directions(monkeypatch)
    config = load_config(str(CONFIGS / "fixture_random.json"))

    def padded():
        return [sorted(n for n, _ in batch) for batch in built if batch[0][1] > 0]

    run_checks(config, ["lax"])
    assert padded() == [[-3, -2, -1, 0, 1, 2, 3]]
    built.clear()
    run_checks(config)
    assert padded() == [[-3, -2, -1, 0, 1, 2, 3]]
    assert len(built) == 2


@pytest.mark.parametrize("fixture", ["identity", "random", "sigma"])
def test_a_check_reads_the_same_alone_as_in_the_battery(fixture):
    # results shared through the context, and the reciprocals kept on its
    # series, make no check depend on what ran before it
    config = load_config(str(CONFIGS / f"fixture_{fixture}.json"))

    def outcome(result):
        return result["residual"].hex(), result["error"]

    battery = run_checks(config, sorted(CHECKS))
    assert [r["name"] for r in battery] == sorted(CHECKS)
    for result in battery:
        alone, = run_checks(config, [result["name"]])
        assert outcome(alone) == outcome(result), result["name"]


def test_battery_builds_one_mixed_partial_per_pair_and_gauge(monkeypatch):
    calls = {}
    monkeypatch.setattr(cli.F, "_mixed_partial_along",
                        _counting(calls, "e12", cli.F._mixed_partial_along))
    config = load_config(str(CONFIGS / "fixture_sigma.json"))
    run_checks(config)
    # E along the pair, which no gauge term reaches: every field, tangent
    # and string reads the one
    assert calls == {"e12": 1}


@pytest.mark.parametrize("fixture, names, most", [
    ("random", sorted(CHECKS), 24), ("sigma", None, 18)])
def test_battery_flow_fields(monkeypatch, fixture, names, most):
    # one field per (direction, padding) per battery: lax's padded n = 0
    # field and the tangents of jacobian, tau_gradient and v0_t0_b00 all
    # come from the context, and no check steps the pair
    built = _count_directions(monkeypatch)
    config = load_config(str(CONFIGS / f"fixture_{fixture}.json"))
    run_checks(config, names)
    assert sum(map(len, built)) <= most


def test_battery_builds_the_monomial_case_once(monkeypatch):
    """One closed form, and one chain per (germ, sign) that every reader
    shares: a row is computed only when it is new or asked deeper, and
    the generating identity reads the closed form's rows without computing any."""
    calls, grown, stores = {}, [], {}
    monkeypatch.setattr(cli.SP, "closed_form",
                        _counting(calls, "closed_form", cli.SP.closed_form))
    chain = cli.S._chain

    def counted(a, s, tops, x):
        before = list(getattr(vars(a).get(("powers", s)), "sizes", []))
        out = chain(a, s, tops, x)
        store = vars(a)[("powers", s)]
        # the germ is kept alive with its store, so that no other germ takes its id
        assert stores.setdefault((id(a), s), (a, store))[1] is store
        after = list(store.sizes)
        assert all(size > before[k] for k, size in enumerate(after[:len(before)])
                   if size != before[k])
        grown.append(after != before)
        return out

    generating = cli.SP.generating_identity_check

    def reads_only(*args):
        start = len(grown)
        out = generating(*args)
        assert not any(grown[start:])
        calls["generating"] = calls.get("generating", 0) + 1
        return out

    monkeypatch.setattr(cli.S, "_chain", counted)
    monkeypatch.setattr(cli.SP, "generating_identity_check", reads_only)
    config = load_config(str(CONFIGS / "fixture_sigma.json"))
    results = run_checks(config, sorted(CHECKS))
    assert calls == {"closed_form": 1, "generating": 1}
    assert [r["error"] for r in results if r["name"] in (
        "generating_identity", "nontrivial_identity", "special_logtau")] \
        == ["", "", ""]


def test_failed_monomial_case_is_reported_by_every_check(tmp_path):
    payload = identity_payload()
    payload["hamiltonian"][0]["re"] = 2.0
    config = load_config(write_config(tmp_path, payload))
    names = ["generating_identity", "nontrivial_identity", "special_logtau"]
    results = run_checks(config, names)
    assert [r["error"] for r in results] == [
        "ValueError: check needs a single unit-coefficient monomial "
        "potential"] * 3


def test_grunsky_json_output_serializes_the_table_once(tmp_path, capsys,
                                                        monkeypatch):
    # one table block per command, however many JSON outputs; CSV rows only
    # for a CSV output; and no json.dumps call ever sees the entries
    dumped, calls = [], {}
    dumps = cli.json.dumps
    monkeypatch.setattr(cli.json, "dumps",
                        lambda obj, **kw: dumped.append(obj) or dumps(obj, **kw))
    for name in ("_table_json", "_table_rows"):
        monkeypatch.setattr(cli, name,
                            _counting(calls, name.lstrip("_"), getattr(cli, name)))
    for formats, rendered in ((("json", "json"), {"table_json": 1}),
                              (("json", "csv"), {"table_json": 1, "table_rows": 1})):
        calls.clear()
        payload = identity_payload()
        payload["outputs"] = [{"target": str(tmp_path / f"table{k}.{fmt}"),
                               "format": fmt} for k, fmt in enumerate(formats)]
        code, out, _ = run_cli(["grunsky", write_config(tmp_path, payload)],
                               capsys)
        assert code == 0 and json.loads(out)["entry_count"] == 21 ** 2
        assert calls == rendered, formats
    assert not [obj for obj in dumped if isinstance(obj, dict)
                and (obj.get("entries") is not None or "0,0" in obj)]
    table = (tmp_path / "table0.json").read_bytes()
    assert len(json.loads(table)["entries"]) == 21 ** 2
    assert (tmp_path / "table1.json").read_bytes() == table


@pytest.mark.parametrize("command", ["grunsky", "sigma"])
def test_table_block_is_rendered_only_for_a_json_output(tmp_path, capsys,
                                                         monkeypatch, command):
    # stdout shows a summary without the table, so only a JSON file reads it
    calls = {}
    monkeypatch.setattr(cli, "_table_json",
                        _counting(calls, "table_json", cli._table_json))
    payload = json.loads((CONFIGS / "fixture_sigma.json").read_text())
    for formats, rendered in (((), {}), (("csv",), {}),
                              (("json",), {"table_json": 1})):
        calls.clear()
        payload["outputs"] = [{"target": str(tmp_path / f"out.{fmt}"),
                               "format": fmt} for fmt in formats]
        code, _, _ = run_cli([command, write_config(tmp_path, payload)], capsys)
        assert code == 0 and calls == rendered, formats


def test_grunsky_csv_output_lists_every_entry(tmp_path, capsys):
    payload = identity_payload()
    payload["outputs"] = [
        {"target": str(tmp_path / "table.json"), "format": "json"},
        {"target": str(tmp_path / "table.csv"), "format": "csv"}]
    code, _, _ = run_cli(["grunsky", write_config(tmp_path, payload)],
                         capsys)
    assert code == 0
    doc = json.loads((tmp_path / "table.json").read_text())
    rows = (tmp_path / "table.csv").read_text().splitlines()
    assert rows[0] == "m,n,re,im"
    assert len(rows) - 1 == (2 * doc["order"] + 1) ** 2 == len(doc["entries"])
    for row in rows[1:]:
        m, n, re, im = row.split(",")
        assert [float(re), float(im)] == doc["entries"][f"{m},{n}"], row
    assert "1,-1,1,0" in rows


def test_failed_table_build_is_reported_by_every_check(monkeypatch, jouk_pair):
    # jouk_pair's g is reliable down to w**-12, too short for an order-12 table
    config = load_config(str(CONFIGS / "fixture_identity.json"))
    monkeypatch.setattr(cli.ExperimentConfig, "context", lambda self: cli.PairContext(
        jouk_pair, self.hamiltonian(), self.gauge, jouk_pair.order))
    results = run_checks(config, TABLE_CHECKS)
    assert [r["name"] for r in results] == TABLE_CHECKS
    for r in results:
        assert r["error"].startswith("WindowUnderflowError"), r
        assert not r["passed"]
        assert r["error"] == ("WindowUnderflowError: window underflow: "
                              "coefficient -1 outside reliable (0, inf)"), r


def test_nan_table_entries_fail_the_table_checks(tmp_path):
    # 1e200/w overflows the pairing products to NaN; a max that dropped
    # NaN used to report these checks as passing at residual 0
    payload = identity_payload()
    payload["pair"] = {"coefficients": {"g": {"1": 1.0, "-1": 1e200},
                                        "f": {"1": 1.0}}}
    payload["order"] = 6
    config = load_config(write_config(tmp_path, payload))
    names = ["faber_identity", "green_identity", "grunsky_dual_path",
             "grunsky_symmetry"]
    with np.errstate(all="ignore"):  # as under cli.main
        results = run_checks(config, names)
    assert [r["name"] for r in results] == names
    assert not any(r["passed"] for r in results), results


@pytest.mark.parametrize("argv", [["coords"], ["grunsky"],
                                  ["flow", "--n", "1", "--eps", "1e-3", "--steps", "1"]],
                         ids=["coords", "grunsky", "flow"])
def test_non_finite_report_fails_and_writes_nothing(tmp_path, argv):
    # 1e200/w overflows the coordinates and the pairing table to NaN;
    # JSON has no NaN, so the command fails instead of printing one
    payload = identity_payload()
    payload["pair"] = {"coefficients": {"g": {"1": 1.0, "-1": 1e200},
                                        "f": {"1": 1.0}}}
    payload["order"] = 6
    payload["outputs"] = [{"target": str(tmp_path / "out.json"), "format": "json"}]
    code, out, err = run_cli_process([argv[0], write_config(tmp_path, payload)]
                                     + argv[1:])
    assert code == 1 and out == ""
    assert "computation failed: report field" in err and "is not finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command, field", [("coords", "v"), ("grunsky", "symmetry_defect")])
def test_floating_point_faults_leave_one_diagnostic_line(tmp_path, command, field):
    # 1e300/w overflows inside numpy kernels; their RuntimeWarnings (which
    # name source lines) must not reach stderr beside the diagnostic
    payload = identity_payload()
    payload["pair"] = {"coefficients": {"g": {"1": 1.0, "-1": 1e300},
                                        "f": {"1": 1.0}}}
    payload["order"] = 4
    code, out, err = run_cli_process([command, write_config(tmp_path, payload)])
    assert (code, out) == (1, "")
    assert err == f"dtoda: computation failed: report field '{field}' is not finite\n"


@pytest.mark.parametrize("bad", [complex(0.5, float("nan")),
                                 complex(0.5, float("inf"))], ids=["nan", "inf"])
@pytest.mark.parametrize("command, key", [("grunsky", "entries"),
                                          ("sigma", "kernel")])
def test_non_finite_imaginary_part_names_the_table_field(tmp_path, monkeypatch,
                                                         command, key, bad):
    # every other field is finite, so the array's own guard has to find it
    array = np.zeros((3, 3), complex)
    array[2, 1] = bad
    monkeypatch.setattr(cli.G, "grunsky_table", lambda pair, k: SimpleNamespace(
        order=1, b=array, b00=0j, symmetry_defect=0.0))
    monkeypatch.setattr(cli.R, "green_identity", lambda table, g, h: (0.0, array))
    payload = json.loads((CONFIGS / "fixture_sigma.json").read_text())
    payload["outputs"] = [{"target": str(tmp_path / "out.json"), "format": "json"}]
    out = io.StringIO()
    with pytest.raises(cli.S.SeriesError,
                       match=f"^report field '{key}' is not finite$"):
        getattr(cli, f"cmd_{command}")(
            load_config(write_config(tmp_path, payload)), stdout=out)
    assert out.getvalue() == "" and not (tmp_path / "out.json").exists()


def test_verify_output_files_round_trip(tmp_path, capsys):
    payload = identity_payload()
    payload["tolerances"] = {"string": 1e-9, "plemelj": 1e-9}
    payload["outputs"] = [
        {"target": str(tmp_path / "report.json"), "format": "json"},
        {"target": str(tmp_path / "report.csv"), "format": "csv"},
    ]
    path = write_config(tmp_path, payload)
    code, _, _ = run_cli(["verify", path], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passed"] == 2 and doc["selected"] == ["plemelj", "string"]
    first = (tmp_path / "report.json").read_bytes()
    run_cli(["verify", path], capsys)
    assert (tmp_path / "report.json").read_bytes() == first
    rows = (tmp_path / "report.csv").read_text().splitlines()
    assert rows[0] == "check,residual,tolerance,status"
    assert len(rows) == 3
