"""Byte identity of the pairing-table report writer.

`cli._table_json` writes the ``entries`` block of ``grunsky`` (and the
``kernel`` block of ``sigma``) straight from the array.  The reference
here is what the reports were before: ``json.dumps(obj, sort_keys=True,
indent=2)`` of the per-entry map {"m,n": [re, im]}, and one CSV row per
entry in index order.  The writer must give the same bytes on the fixture
reports, on an order-64 polynomial pair, and on synthetic arrays that hold
the floats at which ``repr`` changes notation.
"""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from dtoda import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# -0.0, the least subnormal, both sides of repr's switch to exponent
# notation (at 1e16 and below 1e-4), the largest finite doubles, and two
# integral values.
SPECIAL = (-0.0, 5e-324, 1e16, 9999999999999998.0, 1e-4, 9.999e-5,
           1.7976931348623157e308, -1.7976931348623157e308, 0.0, 1.0)


def _entries(array, lo):
    return {f"{m + lo},{n + lo}": [z.real, z.imag]
            for m, row in enumerate(array.tolist()) for n, z in enumerate(row)}


def _reference(head, key, array, lo):
    """JSON and CSV text of a table report, written entry by entry."""
    text = json.dumps(dict(head, **{key: _entries(array, lo)}),
                      sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "n", "re", "im"])
    for m, row in enumerate(array.tolist()):
        for n, z in enumerate(row):
            writer.writerow([m + lo, n + lo, f"{z.real:.17g}", f"{z.imag:.17g}"])
    return text, buf.getvalue()


def _run_table_report(tmp_path, capsys, monkeypatch, command, payload):
    """Run ``command`` with a JSON and a CSV output; return both files'
    text, the reference text for the array the command built, and stdout."""
    built, key = [], {"grunsky": "entries", "sigma": "kernel"}[command]
    table_of, green_of = cli.G.grunsky_table, cli.R.green_identity

    def grunsky_table(*args):
        table = table_of(*args)
        built.append((table.b, -table.order))
        return table

    def green_identity(*args):
        defect, kernel = green_of(*args)
        built.append((kernel, 0))
        return defect, kernel

    monkeypatch.setattr(cli.G, "grunsky_table", grunsky_table)
    monkeypatch.setattr(cli.R, "green_identity", green_identity)
    payload["outputs"] = [
        {"target": str(tmp_path / "out.json"), "format": "json"},
        {"target": str(tmp_path / "out.csv"), "format": "csv"}]
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(payload))
    code = cli.main([command, str(config)])
    out, err = capsys.readouterr()
    assert code == 0, err
    text = (tmp_path / "out.json").read_text()
    head = {k: v for k, v in json.loads(text).items() if k != key}
    array, lo = built[-1]
    return (text, (tmp_path / "out.csv").read_text()), \
        _reference(head, key, array, lo), out


@pytest.mark.parametrize("fixture, command", [
    ("identity", "grunsky"), ("random", "grunsky"), ("sigma", "grunsky"),
    ("identity", "sigma"), ("sigma", "sigma"),
])  # the random pair has a complex b, which `sigma` rejects
def test_fixture_table_reports_match_the_entrywise_encoding(
        tmp_path, capsys, monkeypatch, fixture, command):
    payload = json.loads((CONFIGS / f"fixture_{fixture}.json").read_text())
    written, reference, _ = _run_table_report(tmp_path, capsys, monkeypatch,
                                              command, payload)
    assert written == reference


def test_order64_polynomial_pair_report_matches_the_entrywise_encoding(
        tmp_path, capsys, monkeypatch):
    # shaped like a tables-poly64 config: g = b w + b0 + b1/w + b2/w^2,
    # f = w/b + a2 w^2 + a3 w^3
    b = complex(1.02, 0.04)
    payload = json.loads((CONFIGS / "fixture_identity.json").read_text())
    payload["order"] = 64
    payload["pair"] = {"coefficients": {
        "g": {"1": [b.real, b.imag], "0": [0.07, -0.02], "-1": [0.03, 0.01],
              "-2": [-0.02, 0.01]},
        "f": {"1": [(1 / b).real, (1 / b).imag], "2": [0.04, -0.01],
              "3": [-0.02, 0.02]}}}
    written, reference, out = _run_table_report(tmp_path, capsys, monkeypatch,
                                                "grunsky", payload)
    assert json.loads(out)["order"] == 64
    assert written == reference


@pytest.mark.parametrize("fixture", ["identity", "random", "sigma"])
def test_order1_tables_match_the_entrywise_encoding(tmp_path, fixture):
    # the smallest table, 3 x 3 on labels -1, 0, 1 (a config asks for order 4
    # at least, so the writer is called on the fixture pair's order-1 table)
    config = tmp_path / "exp.json"
    config.write_text((CONFIGS / f"fixture_{fixture}.json").read_text())
    table = cli.G.grunsky_table(cli.load_config(str(config)).build_pair(), 1)
    assert table.b.shape == (3, 3)
    reference = json.dumps({"entries": _entries(table.b, -1)}, sort_keys=True, indent=2)
    assert '{\n  "entries": ' + cli._table_json(table.b, -1) + "\n}" == reference


@pytest.mark.parametrize("offset", ["zero", "negative", "positive"])
def test_synthetic_tables_match_the_entrywise_encoding(offset):
    rng = np.random.default_rng(["zero", "negative", "positive"].index(offset))
    for side in range(1, 26):  # from side 10 on, "1,..." sorts before "10,..."
        lo = {"zero": 0, "negative": -(side // 2) - 1, "positive": 7}[offset]
        parts = rng.standard_normal((2, side, side)) \
            * 10.0 ** rng.integers(-300, 300, (2, side, side))
        flat = parts.ravel()
        k = min(flat.size, len(SPECIAL))
        flat[rng.permutation(flat.size)[:k]] = SPECIAL[:k]
        array = parts[0] + 1j * parts[1]
        reference = json.dumps({"entries": _entries(array, lo)},
                               sort_keys=True, indent=2)
        assert '{\n  "entries": ' + cli._table_json(array, lo) + "\n}" \
            == reference, (side, lo)
