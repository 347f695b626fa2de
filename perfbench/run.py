"""dtoda benchmark: closed-loop, single-process, in-process runs of the CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-sigma16 --seed 1 --seconds 36 --trace 0

One client runs one operation at a time, in process, through the public
command functions of ``dtoda.cli`` (``cmd_verify``, ``cmd_coords``,
``cmd_grunsky``) on configs generated from the seed (see
``workloads.py``).  ``DTODA_THREADS`` and the BLAS thread pools are
pinned to one thread.

A run:

1. sets up several times (fresh import of ``dtoda`` from ``src/``, then
   generating, writing and ``load_config``-validating the run's configs);
   it sets up as often again at the end of the run, so that the median
   reported as ``setup_s`` samples the machine at both ends of the run;
2. runs one operation untimed on the last config (warm-up);
3. runs operations for ``--seconds`` seconds, cycling through the other
   configs, then repeats the first of them untimed (determinism probe):
   stdout bytes that differ from the timed op's count as a failed command;
4. with ``--trace 1``, spends only half of ``--seconds`` in step 3, then
   wraps every layer function in spans (``spans.py``) and runs as many
   operations again, traced, on the next configs; it reports per-op layer
   metrics, the tracing overhead (traced over untraced ``op_p50_s``) and
   the span coverage (layer self time over op wall time).

Every reported time is host-normalised (``host.py``): a fixed reference
kernel that uses no ``dtoda`` code runs before each timed command and set-up
and after the last, and each wall time is scaled by ``host.REFERENCE_S``
over the mean of the two kernel times around it.  This cancels the drift
of a shared host's speed, which scales the kernel and ``dtoda`` alike.
``ops_per_s`` is operations per second of normalised operation time.  The
raw wall times and kernel times are printed and kept in the results file.

The last line of stdout is one JSON object with ``correct``,
``attempted`` (operations), ``failed`` (operations in which a command
raised or printed non-deterministic output) and ``metrics``.  The run's
metadata and residual ledger (every check's residual, tolerance and error
string, per operation) go to ``.perfbench/results/``.

A check that misses its tolerance or raises is a failed item: it lowers
``pass_share`` and never aborts the run.  The run is ``correct`` when
every failed item is a check the workload lists as a baseline failure
and stays within that baseline (residual ceiling or error type, and
median residual over the run), no command failed, and every report is
consistent with its own tolerances and selection.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import host
import spans
import workloads as W

SRC = W.ROOT / "src"
WORK = W.ROOT / ".perfbench"
SETUP_REPEATS = 25  # at each end of the run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "pass_share": "ratio",
    "peak_rss_mb": "MB",
}


def check_names() -> List[str]:
    """The checks some workload selects, each reported as
    ``cli.check.<name>.s`` (zero on workloads that do not select it)."""
    return sorted(set().union(*map(W.selected_checks, W.WORKLOADS.values())))


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for layer, names in spans.LAYER_FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units["series.mul.madds"] = "count"
    units["series.series_built"] = "count"
    units["series.clip.kept_ratio"] = "ratio"
    for name in check_names():
        units[f"cli.check.{name}.s"] = "s"
    for name in spans.CLI_COMMANDS:
        units[f"cli.{name}.self_s"] = "s"
    units["cli.checks_failed"] = "count"
    units["fail_share"] = "ratio"
    units["trace.overhead"] = "ratio"
    units["trace.span_coverage"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# set-up


def setup(workload: W.Workload, seed: int):
    """Import dtoda afresh from src/, then write and validate the configs.

    Returns (seconds, cli module, configs).
    """
    for name in [n for n in sys.modules if n == "dtoda" or n.startswith("dtoda.")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("dtoda.cli")
    config_dir = WORK / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    configs = []
    for i, text in enumerate(W.generate_configs(workload, seed)):
        path = config_dir / f"{i:03d}.json"
        path.write_text(text)
        configs.append(cli.load_config(str(path)))
    elapsed = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != SRC / "dtoda":
        raise SystemExit(f"dtoda was imported from {cli.__file__}, not {SRC}")
    return elapsed, cli, configs


# ---------------------------------------------------------------------------
# operations


def timed_ops(cli, workload: W.Workload, configs,
              indices) -> Tuple[List[dict], List[float]]:
    """Run the operations on configs[i] for i in ``indices``; time each.

    ``indices`` may be an iterator that decides when to stop.  An op's
    ``seconds`` is the sum of its commands' normalised times, ``wall``
    the sum of their wall times.  Also returns the reference kernel's
    times.
    """
    clock = host.Clock()
    ops = []
    for i in indices:
        result = W.run_op(cli, workload, configs[i], pause=clock.pause)
        ops.append({"config": i, "wall": result.seconds,
                    "items": result.items, "stdout": result.stdout})
    clock.pause()
    scaled = iter(clock.normalise([s for op in ops for s in op["wall"]]))
    for op in ops:
        op["seconds"] = sum(next(scaled) for _ in op["wall"])
        op["wall"] = sum(op["wall"])
    return ops, clock.refs


def timed_setups(workload: W.Workload, seed: int, repeats: int):
    """Set up ``repeats`` times; return the normalised times, the kernel
    times, and the last set-up's cli module and configs."""
    clock = host.Clock()
    times = []
    for _ in range(repeats):
        clock.pause()
        seconds, cli, configs = setup(workload, seed)
        times.append(seconds)
    clock.pause()
    return clock.normalise(times), clock.refs, cli, configs


def until(seconds: float, pool: int):
    """Config indices of a closed loop that starts no op after ``seconds``."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        yield i % pool
        i += 1


def mark_nondeterministic(op: dict, reference: List[str]) -> None:
    """Fail each command whose stdout differs from the reference run's."""
    commands = [it for it in op["items"] if it["kind"] == "command"]
    for item, out, ref in zip(commands, op["stdout"], reference):
        if out != ref:
            item["passed"] = False
            item["error"] = (item["error"] + "; " if item["error"] else "") \
                + "stdout differs from a repeat on the same input"


def problems(workload: W.Workload, config, op: dict) -> List[str]:
    """Why an operation's outputs are not acceptable (empty when they are)."""
    found = []
    for it in op["items"]:
        if it["kind"] == "command":
            if not it["passed"]:
                found.append(f"{it['name']} failed: {it['error']}")
            continue
        baseline = workload.baseline_failures.get(it["name"])
        if not it["passed"] and not (baseline and baseline.admits(it)):
            found.append(f"check {it['name']} failed outside its baseline "
                         f"{baseline}: residual {it['residual']!r} > "
                         f"{it['tolerance']!r} {it['error']}")
        if it["passed"] != (it["residual"] <= it["tolerance"]):
            found.append(f"check {it['name']}: status contradicts residual")
        if it["error"] and it["residual"] != float("inf"):
            found.append(f"check {it['name']}: error with a finite residual")
    # Checks are listed only when verify returned; every workload runs it.
    want = sorted(dict(workload.commands)["verify"] or config.tolerances)
    got = [it["name"] for it in op["items"] if it["kind"] == "check"]
    if got and got != want:
        found.append(f"verify reported {got}, selected {want}")
    return found


def baseline_problems(workload: W.Workload, ops: List[dict]) -> List[str]:
    """Baseline checks whose median residual over the run is too high."""
    found = []
    for name, baseline in workload.baseline_failures.items():
        residuals = [it["residual"] for op in ops for it in op["items"]
                     if it["kind"] == "check" and it["name"] == name]
        if residuals and statistics.median(residuals) > baseline.median:
            found.append(f"check {name}: median residual "
                         f"{statistics.median(residuals)!r} over the run "
                         f"exceeds its baseline {baseline.median!r}")
    return found


# ---------------------------------------------------------------------------
# metrics


def item_counts(ops: List[dict]) -> Tuple[int, int]:
    items = [it for op in ops for it in op["items"]]
    return len(items), sum(not it["passed"] for it in items)


def end_to_end_metrics(setup_times, ops) -> Dict[str, float]:
    n_items, n_failed = item_counts(ops)
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(op["seconds"] for op in ops),
        "ops_per_s": len(ops) / sum(op["seconds"] for op in ops),
        "pass_share": (n_items - n_failed) / n_items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(tracer: spans.Tracer, untraced: List[dict],
                      traced: List[dict]) -> Dict[str, float]:
    n = len(traced)
    values: Dict[str, float] = {}
    for layer, names in spans.LAYER_FUNCTIONS.items():
        for name in names:
            calls, _total, self_s = tracer.spans[f"{layer}.{name}"]
            values[f"{layer}.{name}.calls"] = calls / n
            values[f"{layer}.{name}.self_s"] = self_s / n
    counters = tracer.counters
    values["series.mul.madds"] = counters["series.mul.madds"] / n
    values["series.series_built"] = counters["series.series_built"] / n
    offered = counters["series.clip.offered"]
    values["series.clip.kept_ratio"] = counters["series.clip.kept"] / offered \
        if offered else 0.0
    for name in check_names():
        values[f"cli.check.{name}.s"] = tracer.spans[f"cli.check.{name}"][1] / n
    for name in spans.CLI_COMMANDS:
        values[f"cli.{name}.self_s"] = tracer.spans[f"cli.{name}"][2] / n
    n_items, n_failed = item_counts(traced)
    values["cli.checks_failed"] = sum(
        not it["passed"] for op in traced for it in op["items"]
        if it["kind"] == "check") / n
    values["fail_share"] = n_failed / n_items
    values["trace.overhead"] = statistics.median(op["seconds"] for op in traced) \
        / statistics.median(op["seconds"] for op in untraced)
    layer_self = sum(stat[2] for key, stat in tracer.spans.items()
                     if not key.startswith("cli."))
    values["trace.span_coverage"] = layer_self / sum(op["wall"] for op in traced)
    return values


# ---------------------------------------------------------------------------
# metadata


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = W.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = W.ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (W.ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "DTODA_THREADS": os.environ["DTODA_THREADS"],
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "reference_s_nominal": host.REFERENCE_S,
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Pin every thread pool before numpy (imported by dtoda) loads.
    for var in ("DTODA_THREADS",) + BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "dtoda").is_dir():
        print(f"perfbench: no dtoda sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(W.ROOT)
    sys.path.insert(0, str(SRC))
    workload = W.WORKLOADS[args.workload]

    setup_times, refs, cli, configs = timed_setups(workload, args.seed,
                                                   SETUP_REPEATS)

    # Warm up on the last config, which no timed op uses.
    pool = len(configs) - 1
    W.run_op(cli, workload, configs[pool])
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    ops, op_refs = timed_ops(cli, workload, configs,
                             until(untraced_seconds, pool))
    refs += op_refs
    # Determinism probe: repeat the first timed op, untimed.
    repeat = W.run_op(cli, workload, configs[ops[0]["config"]])
    mark_nondeterministic(ops[0], repeat.stdout)

    traced: List[dict] = []
    if args.trace:
        tracer = spans.Tracer()
        uninstall = tracer.install()
        try:
            # As many ops as the untraced phase ran, on the configs after
            # them, so no traced op repeats an input.
            traced, traced_refs = timed_ops(cli, workload, configs,
                                            [(len(ops) + k) % pool
                                             for k in range(len(ops))])
            refs += traced_refs
        finally:
            uninstall()

    end_times, end_refs, _, _ = timed_setups(workload, args.seed,
                                             SETUP_REPEATS)
    setup_times += end_times
    refs += end_refs

    all_ops = ops + traced
    faults = [f"op {k} (config {op['config']}): {p}"
              for k, op in enumerate(all_ops)
              for p in problems(workload, configs[op["config"]], op)]
    faults += baseline_problems(workload, all_ops)
    if args.trace:
        values = per_layer_metrics(tracer, ops, traced)
        units = per_layer_units()
    else:
        values = end_to_end_metrics(setup_times, ops)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    ledger = [{"op": k, "phase": "traced" if k >= len(ops) else "timed",
               "config": op["config"], "seconds": op["seconds"],
               "wall_s": op["wall"], "items": op["items"]}
              for k, op in enumerate(all_ops)]
    result_path = results_dir / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(
        {"meta": metadata(args), "setup_s": setup_times,
         "reference_s": refs, "metrics": metrics,
         "problems": faults, "ledger": ledger}, indent=1) + "\n")

    for problem in faults:
        print(f"problem: {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"wall: op p50 {statistics.median(op['wall'] for op in ops):.6g} s; "
          f"reference kernel p50 {statistics.median(refs):.6g} s "
          f"(normalised to {host.REFERENCE_S} s)")
    print(f"ops: {len(ops)} timed, {len(traced)} traced; results in "
          f"{result_path.relative_to(W.ROOT)}")
    print(json.dumps({
        "correct": not faults,
        "attempted": len(all_ops),
        "failed": sum(any(it["kind"] == "command" and not it["passed"]
                          for it in op["items"]) for op in all_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
