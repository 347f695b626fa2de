"""Command-line contract: config validation, exit codes, determinism.

Every numeric value asserted here was measured through the library
before being written down; the CLI layer must reproduce it byte for
byte on repeated runs.
"""

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
    assert [(g.variable, g.exponent, g.c) for g in config.gauge] == [
        ("z1", 1, 1 + 0j), ("z2", 2, 0.5 - 0.25j)]


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


def test_samples_default_meets_its_own_bound(tmp_path):
    payload = identity_payload()
    del payload["samples_M"]
    payload["order"] = 128  # needs samples_M >= 4*(2*128+1) = 1028
    assert load_config(write_config(tmp_path, payload)).samples_m == 2048
    payload["order"] = 10
    assert load_config(write_config(tmp_path, payload)).samples_m == 1024


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
    payload = identity_payload()
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
    # the reflected pair certifies a window below its nominal order
    assert doc["order"] == 14


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


def test_special_report_sigma_case(capsys):
    code, out, _ = run_cli(
        ["special", str(CONFIGS / "fixture_sigma.json"),
         "--mu", "1", "--nu", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["t0"][0] == pytest.approx(0.99, abs=1e-12)
    assert doc["nontrivial_identity"] <= 1e-9
    assert abs(doc["special_logtau"][0] - doc["general_logT"][0]) <= 1e-9


def test_special_searches_down_for_a_certified_order(capsys):
    # the default order 12 leaves f's certified window; order 11 builds
    code, out, _ = run_cli(
        ["special", str(CONFIGS / "fixture_sigma.json"),
         "--mu", "-2", "--nu", "1"], capsys)
    assert code == 0
    assert json.loads(out)["order"] == 11


def test_special_underflow_at_order_one_is_one_line():
    # default order 16 - 7 - 7 - 1 = 1: nothing lower to retry
    code, _, err = run_cli_process(
        ["special", str(CONFIGS / "fixture_sigma.json"),
         "--mu", "-7", "--nu", "7"])
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


def _count_moments(monkeypatch):
    """Every moment object built, as (pair, order, potential + gauge terms)."""
    built = []

    class Counted(cli.C.Moments):
        def __init__(self, pair, h, gauge, order):
            super().__init__(pair, h, gauge, order)
            built.append((pair, order, self.ms.terms))

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


@pytest.mark.parametrize("fixture", ["random", "sigma"])
def test_battery_builds_each_moment_object_once(monkeypatch, fixture):
    built = _count_moments(monkeypatch)
    config = load_config(str(CONFIGS / f"fixture_{fixture}.json"))
    run_checks(config, sorted(CHECKS))
    keys = [(id(pair), order, terms) for pair, order, terms in built]
    assert len(keys) == len(set(keys)), "a moment object was built twice"
    # the context's own: the probe snapshot, v_0 and the monomial window
    pair = built[0][0]
    assert sorted(order for p, order, terms in built
                  if p is pair and terms == config.terms) == [8, 13, 16]


def test_battery_reads_the_canonical_bracket_once_in_lax(monkeypatch):
    calls = {}
    monkeypatch.setattr(cli.F, "canonical_bracket_check",
                        _counting(calls, "bracket", cli.F.canonical_bracket_check))
    monkeypatch.setattr(cli.F, "flow_field", _counting(
        calls, "padded_n0", cli.F.flow_field,
        when=lambda pair, h, n, **kw: n == 0 and kw.get("pad", 0) > 0))
    config = load_config(str(CONFIGS / "fixture_random.json"))
    results = run_checks(config)
    assert all(r["passed"] for r in results), results
    # once inside lax, once as its own check; and the padded n = 0 field
    # that lax (per index), canonical_bracket and string read is built once
    assert calls == {"bracket": 2, "padded_n0": 1}


@pytest.mark.parametrize("fixture, names, most", [
    ("random", sorted(CHECKS), 34), ("sigma", None, 28)])
def test_battery_flow_fields(monkeypatch, fixture, names, most):
    # one field per (direction, gauge, padding, samples) per battery: lax's
    # padded n = 0 field, tau_gradient's probe fields and gauge_covariance's
    # plain ones come from the context; only v0_t0_b00's two rk4 steps build
    # their own (including a k1 field equal to jacobian's n = 0 one)
    calls = {}
    monkeypatch.setattr(cli.F, "flow_field",
                        _counting(calls, "flow_field", cli.F.flow_field))
    config = load_config(str(CONFIGS / f"fixture_{fixture}.json"))
    run_checks(config, names)
    assert calls["flow_field"] <= most


def test_battery_builds_the_monomial_case_once(monkeypatch):
    calls = {}
    for name in ("_chains", "closed_form"):
        monkeypatch.setattr(cli.SP, name,
                            _counting(calls, name, getattr(cli.SP, name)))
    config = load_config(str(CONFIGS / "fixture_sigma.json"))
    results = run_checks(config, sorted(CHECKS))
    # one closed form and one set of chains, which generating_identity reuses
    assert calls == {"_chains": 1, "closed_form": 1}
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


def test_failed_table_build_is_reported_by_every_check():
    # fixture_sigma's certified window is too short for an order-16 table
    config = load_config(str(CONFIGS / "fixture_sigma.json"))
    results = run_checks(config, TABLE_CHECKS)
    assert [r["name"] for r in results] == TABLE_CHECKS
    for r in results:
        assert r["error"].startswith("WindowUnderflowError"), r
        assert not r["passed"]
        assert r["error"] == ("WindowUnderflowError: window underflow: "
                              "coefficient -1 outside reliable (-inf, -2)"), r


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
    monkeypatch.setattr(cli.R, "green_identity", lambda g, h, order: (
        0.0, SimpleNamespace(kernel=array)))
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
