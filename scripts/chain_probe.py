"""Print what each command asks of the power chains of g and f.

Every row g^k, g^-k, f^k and f^-k is built or grown by one kernel,
``series._chain``.  This script wraps it from outside (nothing under
``src/`` changes) and runs ``coords``, ``grunsky`` and ``verify`` (the
config's selection) on a config, or the operations of a benchmark
workload on the first ``--ops`` configs it generates for ``--seed``.  It
prints one line per (command, germ, sign):

    command  germ  sign  calls  regrowing  built  regrown  deepest  ms

``calls`` counts `_chain` calls, ``regrowing`` the calls that grew a row
already built, ``built`` the rows computed for the first time,
``regrown`` the rows computed again deeper, ``deepest`` the most terms a
row of the chain holds after the command, and ``ms`` the wall time spent
in `_chain`.  The command is the innermost of ``coords``, ``grunsky``,
``verify`` and each check ``verify`` runs (``verify:<check>``); the germ
is ``g`` or ``f`` of a pair, or the flavor of any other germ.  The last
line sums the columns over the run.

With ``--root CHECKOUT`` the probe imports ``dtoda`` from that checkout's
``src/``, so one copy of the script compares two checkouts.

Usage:
    python scripts/chain_probe.py CONFIG [--root CHECKOUT]
    python scripts/chain_probe.py --workload W --seed S --ops N [--root CHECKOUT]
"""

import argparse
import dataclasses
import io
import os
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COLUMNS = ("calls", "regrowing", "built", "regrown", "deepest", "ms")


def row_sizes(a, s: int) -> list:
    """Terms held by each row of ``a``'s chain of sign ``s``: the store's
    ``sizes``, or in a checkout whose store is a list of (row, scale) items,
    each row's size."""
    store = vars(a).get(("powers", s), ())
    return list(store.sizes) if hasattr(store, "sizes") else [p.size for p, _ in store]


def probe(run, cli) -> dict:
    """{(command, germ, sign): {column: value}} of the `_chain` calls that
    ``run()`` makes, ``cli`` being the loaded ``dtoda.cli``.  The commands
    record an error raised inside a check, so one raised by the probe's own
    bookkeeping is kept and re-raised after the run: a broken probe never
    reads as a tally of zeros."""
    series, pairs = sys.modules["dtoda.series"], sys.modules["dtoda.conformal_pair"]
    tallies, where, germs, failures = {}, ["-"], {}, []
    chain, post_init, checks = series._chain, pairs.ConformalPair.__post_init__, dict(cli.CHECKS)

    def named(label, fn):
        def wrapped(*args, **kwargs):
            where.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                where.pop()
        return wrapped

    def noted(pair):  # the germ is kept with its label, so that no other germ takes its id
        post_init(pair)
        germs.update({id(pair.g): ("g", pair.g), id(pair.f): ("f", pair.f)})

    def kept(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            failures.append(exc)
            raise

    def counted(a, s, tops, x):
        before = kept(row_sizes, a, s)
        start = time.perf_counter()
        out = chain(a, s, tops, x)
        kept(tally, a, s, before, time.perf_counter() - start)
        return out

    def tally(a, s, before, spent):
        after = row_sizes(a, s)
        germ = germs[id(a)][0] if germs.get(id(a), (None, None))[1] is a else a.flavor
        key = (where[-1], germ, "+" if s > 0 else "-")
        row = tallies.setdefault(key, dict.fromkeys(COLUMNS, 0))
        regrown = sum(new > old for old, new in zip(before, after))
        row["calls"] += 1
        row["regrowing"] += regrown > 0
        row["built"] += len(after) - len(before)
        row["regrown"] += regrown
        row["deepest"] = max(row["deepest"], max(after, default=0))
        row["ms"] += spent * 1e3

    commands = {name: getattr(cli, name) for name in ("cmd_coords", "cmd_grunsky", "cmd_verify")}
    try:
        series._chain, pairs.ConformalPair.__post_init__ = counted, noted
        for name, fn in commands.items():
            setattr(cli, name, named(name.removeprefix("cmd_"), fn))
        cli.CHECKS.update({name: (tol, named(f"verify:{name}", fn))
                           for name, (tol, fn) in checks.items()})
        run()
    finally:
        series._chain, pairs.ConformalPair.__post_init__ = chain, post_init
        cli.CHECKS.update(checks)
        for name, fn in commands.items():
            setattr(cli, name, fn)
    if failures:
        raise failures[0]
    return tallies


def report(tallies: dict) -> list:
    """The table's lines, in order of first call, and the total line."""
    lines = [f"{'command':32s} {'germ':9s} sign " + " ".join(f"{c:>9s}" for c in COLUMNS)]
    total = dict.fromkeys(COLUMNS, 0)
    for (command, germ, sign), row in tallies.items():
        lines.append(f"{command:32s} {germ:9s} {sign:4s} "
                     + " ".join(f"{row[c]:9.2f}" if c == "ms" else f"{row[c]:9d}" for c in COLUMNS))
        total = {c: max(total[c], row[c]) if c == "deepest" else total[c] + row[c] for c in COLUMNS}
    lines.append(f"{'total':32s} {'':9s} {'':4s} "
                 + " ".join(f"{total[c]:9.2f}" if c == "ms" else f"{total[c]:9d}" for c in COLUMNS))
    return lines


def config_run(cli, path: str):
    """Run ``coords``, ``grunsky`` and ``verify`` on the config at ``path``,
    writing no output file."""
    config = dataclasses.replace(cli.load_config(path), outputs=())

    def run():
        for name in ("cmd_coords", "cmd_grunsky", "cmd_verify"):
            kwargs = {"stderr": io.StringIO()} if name == "cmd_verify" else {}
            getattr(cli, name)(config, stdout=io.StringIO(), **kwargs)
    return run


def workload_run(cli, name: str, seed: int, ops: int):
    """Run one operation of workload ``name`` on each of the first ``ops``
    configs it generates for ``seed``, in a temporary directory."""
    sys.path.insert(0, str(REPO))
    from perfbench import workloads

    workload = workloads.WORKLOADS[name]
    texts = workloads.generate_configs(workload, seed)[:ops]

    def run():
        home = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                os.makedirs(Path(workloads.REPORT_PATH).parent, exist_ok=True)
                for i, text in enumerate(texts):
                    Path(f"config{i}.json").write_text(text)
                    workloads.run_op(cli, workload, cli.load_config(f"config{i}.json"))
            finally:
                os.chdir(home)
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", nargs="?", help="an experiment config")
    ap.add_argument("--workload", help="run this benchmark workload's operations instead")
    ap.add_argument("--seed", type=int, help="the workload's seed")
    ap.add_argument("--ops", type=int, help="how many of the workload's configs")
    ap.add_argument("--root", type=Path, default=REPO,
                    help="checkout whose src/ is imported (default: the one holding this script)")
    args = ap.parse_args(argv)
    if bool(args.config) == bool(args.workload) or args.workload and (
            args.seed is None or args.ops is None):
        ap.error("give a config, or --workload with --seed and --ops")
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from dtoda import cli

    run = (workload_run(cli, args.workload, args.seed, args.ops) if args.workload
           else config_run(cli, args.config))
    for line in report(probe(run, cli)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
