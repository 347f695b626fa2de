"""Golden-output regression for the CLI payloads and the verify ledger.

``tests/golden/<fixture>.json`` holds, for each fixture config, the
parsed JSON stdout of ``coords``, ``grunsky``, ``special --mu 1 --nu 1``,
``flow --n 1 --eps 1e-3 --steps 3`` and ``sigma`` (or the type of the
error the command raised), and the residual, PASS/FAIL and error type of all 19
registered checks.  Numbers must agree to 1e-12 absolute; a finite
residual may instead agree to 1e-6 relative, since the checks report
differences of nearly equal quantities.  Strings, statuses and error
types must match exactly.

Regenerate only when a change of numbers is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import math
from pathlib import Path

import pytest

from dtoda import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("identity", "random", "sigma")

COMMANDS = {
    "coords": lambda cfg, out: cli.cmd_coords(cfg, stdout=out),
    "grunsky": lambda cfg, out: cli.cmd_grunsky(cfg, stdout=out),
    "special_mu1_nu1": lambda cfg, out: cli.cmd_special(cfg, 1, 1, stdout=out),
    "flow_n1": lambda cfg, out: cli.cmd_flow(cfg, 1, 1e-3, 3, stdout=out),
    "sigma": lambda cfg, out: cli.cmd_sigma(cfg, stdout=out),
}


def _config(fixture):
    return cli.load_config(str(ROOT / "configs" / f"fixture_{fixture}.json"))


def _command_record(fixture, command) -> dict:
    out = io.StringIO()
    try:
        code = COMMANDS[command](_config(fixture), out)
    except Exception as exc:  # noqa: BLE001 - the error type is the record
        return {"error": type(exc).__name__}
    return {"exit": code, "stdout": json.loads(out.getvalue())}


def _verify_record(fixture) -> dict:
    results = cli.run_checks(_config(fixture), sorted(cli.CHECKS))
    return {r["name"]: {
        "residual": r["residual"] if math.isfinite(r["residual"])
        else repr(r["residual"]),
        "status": "PASS" if r["passed"] else "FAIL",
        "error": r["error"].split(":", 1)[0]} for r in results}


def _record(fixture) -> dict:
    record = {c: _command_record(fixture, c) for c in COMMANDS}
    record["verify"] = _verify_record(fixture)
    return record


def _assert_close(got, want, path="", rel=0.0):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}/{key}", rel)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]", rel)
    elif isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        assert abs(got - want) <= max(1e-12, rel * abs(want)), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def _golden(fixture) -> dict:
    return json.loads((GOLDEN / f"{fixture}.json").read_text())


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fixture", FIXTURES)
def test_command_matches_golden(fixture, command):
    _assert_close(_command_record(fixture, command), _golden(fixture)[command],
                  f"{fixture}/{command}")


@pytest.mark.parametrize("fixture", FIXTURES)
def test_verify_ledger_matches_golden(fixture):
    _assert_close(_verify_record(fixture), _golden(fixture)["verify"],
                  f"{fixture}/verify", rel=1e-6)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for fx in FIXTURES:
        text = json.dumps(_record(fx), indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{fx}.json").write_text(text)
