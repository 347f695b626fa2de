"""Smoke test of the example scripts: each runs to exit 0 on small inputs.

The scripts import the coordinate, flow and battery APIs directly, so a
renamed function or a changed signature shows up here first.  The
benchmark summariser runs on small synthetic results files.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["ellipse_sigma_demo.py", "--steps", "2"],
    ["flow_trajectory.py", "--steps", "2", "--order", "8"],
    ["run_verify_suite.py"],
], ids=lambda argv: argv[0].removesuffix(".py"))
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def _results(seed, trace, metrics, residual=1e-12):
    """A minimal results file of `perfbench/run.py`."""
    return {"meta": {"workload": "w", "seed": seed, "trace": trace, "git_commit": "abc"},
            "reference_s": [0.01, 0.03], "problems": [],
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
            "ledger": [{"op": 0, "config": 1, "seconds": 0.5, "wall_s": 0.6,
                        "items": [{"name": "c", "kind": "check", "passed": True,
                                   "residual": residual, "error": ""}]}]}


def test_bench_summary_writes_medians_and_ledger_digests(tmp_path):
    files = []
    for k, res in enumerate([_results(1, 0, {"op_p50_s": 1.0}),
                             _results(2, 0, {"op_p50_s": 3.0}, residual=2e-12),
                             _results(3, 0, {"op_p50_s": 2.0}),
                             _results(1, 1, {"series.mul.calls": 7.0})]):
        files.append(tmp_path / f"r{k}.json")
        files[-1].write_text(json.dumps(res))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_summary.py"),
                           "demo", *map(str, files), "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "out" / "BENCH_demo.json").read_text())
    w = doc["workloads"]["w"]
    assert w["end_to_end"]["op_p50_s"] == {"median": 2.0, "q1": 1.5, "q3": 2.5,
                                            "unit": "s", "n": 3}
    assert w["per_layer"]["series.mul.calls"]["median"] == 7.0
    assert w["reference_s"] == 0.02 and w["correct"] and w["runs"] == 4
    digests = [run["ledger_sha256"] for run in doc["runs"]]
    assert digests[0] == digests[2] != digests[1]


def test_output_digest_lists_every_stream_and_file():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the script sets it for the checkout it runs
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    exits = [line for line in lines if " exit " in line]
    keys = [tuple(line.split()[:3]) for line in lines]
    assert len(set(keys)) == len(keys) == 3 * 7 * 4 + len(exits)
    # the random pair has a complex b, which `sigma` rejects with exit 2;
    # the full battery fails some checks on the random and sigma pairs
    assert exits == ["random sigma exit 2", "random verify-all exit 1",
                     "sigma verify-all exit 1"]
    assert "random sigma json absent" in lines
    # a verify battery writes both report files whatever its exit code
    assert not [line for line in lines if " verify" in line and line.endswith("absent")]
    for line in lines:
        if " exit " not in line and not line.endswith("absent"):
            assert len(line.split()[3]) == 64, line


def _output_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "scripts" / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_output_digest_masks_only_the_timing_lines():
    digest = _output_digest()
    err = (b"# jacobian: 0.123s\n# total: 12.500s\n"
           b"dtoda: error: eps 0.5s\n# note: 0.1s\n")
    assert digest.masked(err) == (b"# jacobian: <s>\n# total: <s>\n"
                                  b"dtoda: error: eps 0.5s\n# note: 0.1s\n")


def test_output_digest_against_lists_only_the_changed_lines():
    ours = ["sigma verify stdout aaa", "sigma verify json bbb",
            "random sigma exit 2", "random sigma stdout ccc"]
    theirs = ["sigma verify stdout aaa", "sigma verify json BBB",
              "random sigma stdout ccc", "random flow exit 1"]
    assert _output_digest().changed(ours, theirs) == [
        "sigma verify json BBB -> bbb", "random sigma exit - -> 2", "random flow exit 1 -> -"]
    assert _output_digest().changed(ours, ours) == []


def test_output_digest_orders_rewrite_only_the_order_and_the_label():
    digest = _output_digest()
    payload = json.loads((ROOT / "configs" / "fixture_sigma.json").read_text())
    before = json.dumps(payload)
    assert digest.variants("sigma", payload) == [("sigma", payload)]
    runs = digest.variants("sigma", payload, [16, 64])
    assert [label for label, _ in runs] == ["sigma@16", "sigma@64"]
    for (_, run), order in zip(runs, (16, 64)):
        assert list(run) == list(payload)  # the same keys in the same order
        assert run == dict(payload, order=order)
    assert json.dumps(payload) == before  # the fixture's own payload is not touched


def _ledger_diff():
    spec = importlib.util.spec_from_file_location(
        "ledger_diff", ROOT / "scripts" / "ledger_diff.py")
    diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(diff)
    return diff


def _item(name, passed=True, residual=None, error=""):
    item = {"name": name, "kind": "check", "passed": passed, "error": error}
    return item if residual is None else dict(item, residual=residual)


def test_ledger_diff_lists_status_flips_and_the_largest_move():
    diff = _ledger_diff()
    theirs = [[_item("cmd_verify"), _item("lax", residual=1e-9), _item("string", residual=2e-12)],
              [_item("jacobian", False, 2e-3),
               _item("special_logtau", False, float("inf"), "WindowUnderflowError: x")]]
    ours = [[_item("cmd_verify"), _item("lax", False, 2e-8), _item("string", residual=3e-12)],
            [_item("jacobian", False, 2.5e-3),
             _item("special_logtau", False, float("inf"), "SeriesError: y"),
             _item("plemelj", residual=1e-12)]]
    assert diff.flips(ours, theirs) == [
        "op 0 lax PASS -> FAIL",
        "op 1 special_logtau WindowUnderflowError -> SeriesError",
        "op 1 plemelj - -> PASS"]
    assert diff.flips(ours, ours) == []
    # lax, string and jacobian are finite on both sides, special_logtau is
    # not, and plemelj is on one side only; an unmoved residual still counts
    assert [m[2] for m in diff.moves(ours, theirs)] == ["lax", "string", "jacobian"]
    assert max(diff.moves(ours, theirs)) == (abs(2.5e-3 - 2e-3), 1, "jacobian", 2e-3, 2.5e-3)
    assert diff.moves([[_item("cmd_verify")]], [[_item("cmd_verify")]]) == []
    steady = [[_item("lax", residual=1e-9)], [_item("jacobian", False, 2.5e-3)]]
    assert diff.summary(ours, theirs, 3) == (
        "2 ops, 6 items, 3 status changes; 3 of 3 finite residuals moved; largest residual "
        "move: 0.0005 at op 1 jacobian (0.002 -> 0.0025000000000000001)")
    assert diff.summary(steady, theirs, 1).startswith(
        "2 ops, 2 items, 1 status changes; 1 of 2 finite residuals moved; ")
    assert diff.summary(ours, ours, 0).startswith("2 ops, 6 items, 0 status changes; "
                                                  "0 of 4 finite residuals moved; ")
    assert diff.summary([[_item("cmd_verify")]], [[_item("cmd_verify")]], 0).endswith(
        "0 of 0 finite residuals moved; largest residual move: none")


def test_ledger_diff_of_a_checkout_against_itself_is_empty():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ledger_diff.py"),
                           "--against", str(ROOT), "--workload", "verify-sigma16",
                           "--seed", "1", "--ops", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("1 ops, ") and "0 status changes" in proc.stdout
    assert " 0 of " in proc.stdout


def test_output_digest_workload_runs_label_the_generated_configs():
    """``--workload`` digests the configs the benchmark generates, unchanged,
    with the commands of one operation: labels, payloads and command lines."""
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    runs = _output_digest().workload_runs("tables-poly64", 5, 3)
    texts = workloads.generate_configs(workloads.WORKLOADS["tables-poly64"], 5)
    assert [label for label, _, _ in runs] == [f"tables-poly64#{i}" for i in range(3)]
    assert [payload for _, payload, _ in runs] == [json.loads(text) for text in texts[:3]]
    assert runs[0][2] == {"coords": ["coords", "{config}"], "grunsky": ["grunsky", "{config}"],
                          "verify": ["verify", "{config}", "--checks",
                                     "grunsky_symmetry,grunsky_dual_path,faber_identity"]}
    (_, _, commands), = _output_digest().workload_runs("verify-sigma16", 1, 1)
    assert commands == {"verify": ["verify", "{config}"]}


def _chain_probe():
    spec = importlib.util.spec_from_file_location(
        "chain_probe", ROOT / "scripts" / "chain_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_chain_probe_counts_the_rows_each_command_builds_and_grows():
    """In process: one tally per (command, germ, sign), and every wrapped
    name is put back afterwards."""
    probe = _chain_probe()
    from dtoda import cli
    from dtoda import conformal_pair as CP
    from dtoda import series as S

    chain, checks = S._chain, dict(cli.CHECKS)

    def run():
        pair = CP.from_coefficients({1: 1.0, 0: 0.1, -1: 0.05}, {1: 1.0, 2: 0.05}, 8)
        S.powers(pair.f, -3, 4)
        S.powers(pair.f, -5, 4)  # two rows more
        S.powers(pair.f, -5, 9)  # all five deeper
        S.powers(pair.g, 2)

    tallies = probe.probe(run, cli)
    assert tallies[("-", "f", "-")] == {"calls": 3, "regrowing": 1, "built": 5, "regrown": 5,
                                        "deepest": 10, "ms": tallies[("-", "f", "-")]["ms"]}
    assert tallies[("-", "g", "+")]["built"] == 2
    config = str(ROOT / "configs" / "fixture_identity.json")
    tallies = probe.probe(probe.config_run(cli, config), cli)
    assert {"coords", "grunsky", "verify:faber_identity"} <= {c for c, _, _ in tallies}
    lines = probe.report(tallies)
    assert lines[-1].split()[:2] == ["total", str(sum(t["calls"] for t in tallies.values()))]
    assert S._chain is chain and cli.CHECKS == checks
