"""Compare the residual ledgers of two checkouts on one benchmark workload.

Runs the first N configs of a workload's seed (``perfbench/workloads.py``)
through ``workloads.run_op``, once with each checkout's ``src/`` on the
path, each in its own subprocess and temporary directory, and prints every
ledger item whose status differs, as

    op <index> <item> <OTHER's status> -> <ROOT's status>

where a status is PASS, FAIL or the type of the error the item raised ("-"
where a checkout has no such item).  Then it prints how many of the
residuals that both checkouts computed as finite numbers differ at all,
and the largest move among them, and exits 1 if any status differs.  The
configs and ``run_op`` come from this script's checkout, which it only
reads.

Usage:
    python scripts/ledger_diff.py --against OTHER --workload verify-sigma16 --seed 901 --ops 30
        [--root CHECKOUT]
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

# run in a subprocess whose path starts with a checkout's src/ and then HERE
_RUN = """
import json, sys
from pathlib import Path
from perfbench import workloads as W
from dtoda import cli
workload = W.WORKLOADS[sys.argv[1]]
Path(".perfbench").mkdir(exist_ok=True)
ledger = []
for i, text in enumerate(W.generate_configs(workload, int(sys.argv[2]))[: int(sys.argv[3])]):
    Path("config.json").write_text(text)
    ledger.append(W.run_op(cli, workload, cli.load_config("config.json")).items)
print(json.dumps(ledger))
"""


def ledger(checkout: Path, workload: str, seed: int, ops: int) -> list:
    """Items of each op of ``checkout`` on the first ``ops`` configs of the seed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(HERE)]))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", _RUN, workload, str(seed), str(ops)],
                              capture_output=True, text=True, env=env, cwd=tmp, check=True)
    return json.loads(proc.stdout)


def status(item: dict) -> str:
    """PASS, FAIL, or the type of the error the item raised."""
    if item["error"]:
        return item["error"].split(":", 1)[0]
    return "PASS" if item["passed"] else "FAIL"


def flips(ours: list, theirs: list) -> list:
    """Lines ``op <i> <item> <theirs> -> <ours>`` for every item whose status
    differs, op by op, in the order of ``ours`` and then of ``theirs``."""
    lines = []
    for i, (mine, other) in enumerate(zip(ours, theirs)):
        a = {item["name"]: status(item) for item in mine}
        b = {item["name"]: status(item) for item in other}
        lines += [f"op {i} {name} {b.get(name, '-')} -> {a.get(name, '-')}"
                  for name in list(a) + [n for n in b if n not in a]
                  if a.get(name) != b.get(name)]
    return lines


def moves(ours: list, theirs: list) -> list:
    """(|change|, op, item, theirs, ours) of every item with a finite residual
    on both sides."""
    out = []
    for i, (mine, other) in enumerate(zip(ours, theirs)):
        b = {item["name"]: item.get("residual") for item in other}
        for item in mine:
            x, y = item.get("residual"), b.get(item["name"])
            if x is not None and y is not None and math.isfinite(x) and math.isfinite(y):
                out.append((abs(x - y), i, item["name"], y, x))
    return out


def summary(ours: list, theirs: list, changes: int) -> str:
    """The closing line: counts of ops, items and status ``changes``, how many
    finite residuals differ at all, and the largest move."""
    finite = moves(ours, theirs)
    move = max(finite, default=None)
    moved = sum(x != y for _, _, _, y, x in finite)
    return (f"{len(ours)} ops, {sum(len(op) for op in ours)} items, {changes} status changes; "
            f"{moved} of {len(finite)} finite residuals moved; largest residual move: "
            + ("none" if move is None else "{:.3g} at op {} {} ({:.17g} -> {:.17g})".format(*move)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=HERE,
                    help="checkout on the right of each line (default: this script's)")
    ap.add_argument("--against", type=Path, required=True, help="checkout on the left")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    args = ap.parse_args()
    ours, theirs = (ledger(root.resolve(), args.workload, args.seed, args.ops)
                    for root in (args.root, args.against))
    lines = flips(ours, theirs)
    for line in lines:
        print(line)
    print(summary(ours, theirs, len(lines)))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
