"""Print a sha256 digest of every CLI output on the fixture configs.

Runs ``coords``, ``grunsky``, ``sigma``, ``special --mu 1 --nu 1``,
``flow --n 1 --eps 1e-3 --steps 3``, ``verify`` (the configured
selection) and ``verify --checks`` with every registered check
(``verify-all``) on each ``configs/fixture_*.json`` of a checkout, each
with one JSON and one CSV output file in a temporary directory.  Prints
one line per (fixture, command, stream or file):

    <fixture> <command> <stdout|stderr|json|csv> <sha256 or "absent">

and a line ``<fixture> <command> exit <code>`` when the command fails.
The per-check timing lines ``# name: 0.123s`` that ``verify`` writes to
stderr are masked before digesting; every other byte counts.  Two
checkouts write the same bytes when they print the same lines, so
running it on a parent commit and on a change compares their outputs.
With ``--against OTHER``, it digests both checkouts and prints only the
lines that differ, as ``<fixture> <command> <stream> <OTHER's> -> <ROOT's>``
("-" where a checkout prints no such line, as for an exit code), and exits
1 if there is any.  With ``--orders 16,32,64``, each fixture runs once per
listed order instead of at its own, its ``order`` field rewritten, and its
lines are labelled ``<fixture>@<order>``.

With ``--workload W --seed S --ops N``, the configs are instead the first N
that the benchmark generates for workload W and seed S
(``perfbench/workloads.generate_configs`` of this script's checkout, for
both checkouts), and the commands are those of one operation of W, each
labelled by its name (``coords``, ``grunsky``, ``verify``, the last with the
workload's check selection); config i is labelled ``<W>#<i>``.

Usage:
    python scripts/output_digest.py [--root CHECKOUT] [--against OTHER] [--orders N,...]
    python scripts/output_digest.py --workload W --seed S --ops N [--root ...] [--against ...]
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# digest label -> command line after ``dtoda``, with ``{config}`` for the path
COMMANDS = {
    "coords": ["coords", "{config}"],
    "grunsky": ["grunsky", "{config}"],
    "sigma": ["sigma", "{config}"],
    "special": ["special", "{config}", "--mu", "1", "--nu", "1"],
    "flow": ["flow", "{config}", "--n", "1", "--eps", "1e-3", "--steps", "3"],
    "verify": ["verify", "{config}"],
    "verify-all": ["verify", "{config}", "--checks", "{all_checks}"],
}

# verify's per-check timing lines, the only bytes that differ between runs
TIMING = re.compile(rb"^(# [^:\n]+: )[0-9]+\.[0-9]{3}s$", re.MULTILINE)


def masked(stderr: bytes) -> bytes:
    """``stderr`` with the seconds of every timing line replaced by ``<s>``."""
    return TIMING.sub(rb"\1<s>", stderr)


def _digest(data) -> str:
    return "absent" if data is None else hashlib.sha256(data).hexdigest()


def variants(fixture: str, payload: dict, orders=None) -> list:
    """(label, payload) pairs to digest: the fixture as it is, or one copy per
    order of ``orders`` with its ``order`` rewritten, labelled ``<fixture>@<order>``."""
    if not orders:
        return [(fixture, payload)]
    return [(f"{fixture}@{order}", dict(payload, order=order)) for order in orders]


def fixture_runs(root: Path, orders=None) -> list:
    """(label, payload, commands) of each fixture config of the checkout at
    ``root``, at ``orders`` if given, with every command of `COMMANDS`."""
    return [(label, payload, COMMANDS)
            for config in sorted((root / "configs").glob("fixture_*.json"))
            for label, payload in variants(config.stem.removeprefix("fixture_"),
                                           json.loads(config.read_text()), orders)]


def workload_runs(name: str, seed: int, ops: int) -> list:
    """(label, payload, commands) of the first ``ops`` configs the benchmark
    generates for workload ``name`` and ``seed``, labelled ``<name>#<i>``, with
    the commands of one operation of the workload, each labelled by its name."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads

    workload = workloads.WORKLOADS[name]
    commands = {command: [command, "{config}"] + (["--checks", ",".join(names)] if names else [])
                for command, names in workload.commands}
    return [(f"{name}#{i}", json.loads(text), commands)
            for i, text in enumerate(workloads.generate_configs(workload, seed)[:ops])]


def digests(root: Path, runs):
    """Yield the digest lines of the checkout at ``root`` on ``runs``
    (`fixture_runs` or `workload_runs`)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    all_checks = subprocess.run(
        [sys.executable, "-c", "from dtoda.cli import CHECKS; print(','.join(sorted(CHECKS)))"],
        capture_output=True, text=True, env=env, check=True, timeout=600).stdout.strip()
    for label, payload, commands in runs:
        for command, argv in commands.items():
            with tempfile.TemporaryDirectory() as tmp:
                out = {fmt: Path(tmp) / f"out.{fmt}" for fmt in ("json", "csv")}
                targets = [{"target": str(path), "format": fmt} for fmt, path in out.items()]
                path = Path(tmp) / "config.json"
                path.write_text(json.dumps(dict(payload, outputs=targets)))
                args = [a.format(config=path, all_checks=all_checks) for a in argv]
                proc = subprocess.run([sys.executable, "-m", "dtoda.cli", *args],
                                      capture_output=True, env=env, timeout=600)
                streams = {"stdout": proc.stdout, "stderr": masked(proc.stderr)}
                streams.update({fmt: p.read_bytes() if p.exists() else None
                                for fmt, p in out.items()})
            if proc.returncode:
                yield f"{label} {command} exit {proc.returncode}"
            for name, data in streams.items():
                yield f"{label} {command} {name} {_digest(data)}"


def changed(ours, theirs):
    """Lines ``<key> <theirs> -> <ours>`` for every key (a line's leading
    fields) whose last field differs between the two listings, in the order
    of ``ours``, then of the keys only ``theirs`` has; "-" marks a missing line."""
    mine, other = (dict(line.rsplit(" ", 1) for line in lines) for lines in (ours, theirs))
    keys = list(mine) + [key for key in other if key not in mine]
    return [f"{key} {other.get(key, '-')} -> {mine.get(key, '-')}"
            for key in keys if mine.get(key) != other.get(key)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ and configs/ are used "
                         "(default: the one holding this script)")
    ap.add_argument("--against", type=Path,
                    help="another checkout: print only the lines that differ")
    ap.add_argument("--orders", type=lambda text: [int(n) for n in text.split(",")],
                    help="comma-separated orders to run each fixture at "
                         "(default: the fixture's own)")
    ap.add_argument("--workload", help="digest this benchmark workload's configs instead")
    ap.add_argument("--seed", type=int, help="the workload's seed")
    ap.add_argument("--ops", type=int, help="how many of the workload's configs")
    args = ap.parse_args()
    if args.workload and (args.seed is None or args.ops is None or args.orders):
        ap.error("--workload takes --seed and --ops, and no --orders")
    workload = workload_runs(args.workload, args.seed, args.ops) if args.workload else None

    def lines(checkout: Path):
        checkout = checkout.resolve()
        return digests(checkout, workload or fixture_runs(checkout, args.orders))

    if args.against is None:
        for line in lines(args.root):
            print(line, flush=True)
        return 0
    diff = changed(list(lines(args.root)), list(lines(args.against)))
    for line in diff:
        print(line, flush=True)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
