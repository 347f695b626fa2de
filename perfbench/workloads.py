"""Seeded inputs and operations of the dtoda benchmark workloads.

Each workload turns a seed into a pool of experiment configs (JSON text,
byte-identical for the same seed) and defines one operation on a config:
a sequence of calls into the public command functions of ``dtoda.cli``.
The hamiltonian, circle budget, finite-difference step and tolerance map
(and with it the check selection) come from the matching shipped fixture
under ``configs/``; only the pair and the order are generated.

Nothing here imports ``dtoda``: the benchmark times that import as part
of its set-up.
"""

from __future__ import annotations

import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "configs"

# Every command writes its JSON report here (relative to the checkout
# root, which is the working directory of a run); the verify report is
# the source of the residual ledger.
REPORT_PATH = ".perfbench/report.json"

TABLE_CHECKS = ("grunsky_symmetry", "grunsky_dual_path", "faber_identity")


@dataclass(frozen=True)
class Baseline:
    """How a check is known to fail on some inputs of a workload.

    The limits were measured at the commit that defined the benchmark.
    ``ceiling`` bounds the residual of any one operation: the worst over
    the workload's whole input range, with a margin.  ``median`` bounds
    the median residual over a run's operations: the typical case, with a
    margin, so that a change that worsens every input shows even where
    the worst case is loose.  ``raises`` names the error type the check
    may raise instead of returning a residual.
    """

    ceiling: float = 0.0
    median: float = float("inf")
    raises: str = ""

    def admits(self, item: dict) -> bool:
        """Whether a failed ledger item is within this baseline."""
        if item["error"]:
            return bool(self.raises) and item["error"].split(":", 1)[0] == self.raises
        return item["residual"] <= self.ceiling


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``commands`` lists (command, check names) steps of one operation;
    check names ``None`` means the config's own selection.
    ``make_pair(rng, index)`` draws the pair of the pool's config ``index``.
    ``pool`` is how many distinct configs a run generates; the last one
    is the warm-up's, timed operations cycle through the others, and the
    pool is large enough that a run repeats no pair unless the program
    gets about five times faster.
    ``baseline_failures`` maps the checks known to fail on some inputs of
    the workload, at the commit that defined the benchmark, to how they
    fail: such a failure counts as a failed item but does not make a run
    incorrect as long as it stays within its ``Baseline``.
    """

    name: str
    fixture: str
    order: int
    pool: int
    commands: Tuple[Tuple[str, Optional[Tuple[str, ...]]], ...]
    make_pair: Callable[[random.Random, int], dict]
    baseline_failures: Mapping[str, Baseline] = field(default_factory=dict)


def _cx(rng: random.Random, radius: float) -> List[float]:
    return [rng.uniform(-radius, radius), rng.uniform(-radius, radius)]


def _sigma_pair(rng: random.Random, index: int) -> dict:
    # g = w + u1/w + u2/w^2, real coefficients: the reflection subfamily.
    u1 = rng.uniform(0.05, 0.2)
    u2 = rng.uniform(-0.03, 0.03)
    return {"sigma_from_g": {"1": 1.0, "-1": u1, "-2": u2}}


def _poly_pair(rng: random.Random, index: int) -> dict:
    # g = b w + b0 + b1/w + b2/w^2, f = w/b + a2 w^2 + a3 w^3.  Re b is
    # uniform on [0.9, 1.1] drawn by quarters: config i takes quarter
    # i % 4, so every four consecutive configs (a run's first ops) reach
    # the large-|b| quarter, where the table checks fail.
    low = 0.9 + 0.05 * (index % 4)
    b = complex(rng.uniform(low, low + 0.05), rng.uniform(-0.1, 0.1))
    g = {"1": [b.real, b.imag], "0": _cx(rng, 0.1),
         "-1": _cx(rng, 0.05), "-2": _cx(rng, 0.03)}
    a1 = 1.0 / b
    f = {"1": [a1.real, a1.imag], "2": _cx(rng, 0.05), "3": _cx(rng, 0.03)}
    return {"coefficients": {"g": g, "f": f}}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("verify-sigma16", "fixture_sigma.json", 16, 256,
             (("verify", None),), _sigma_pair,
             # jacobian: worst 1.5e-3 at u1 = 0.2, |u2| = 0.03, typical 3e-5;
             # both identities underflow for u1 above about 0.143, and just
             # below it nontrivial_identity reaches 1.16e-9 at |u2| = 0.03.
             {"jacobian": Baseline(ceiling=5e-3, median=1e-3),
              "nontrivial_identity": Baseline(ceiling=3e-9,
                                              raises="WindowUnderflowError"),
              "special_logtau": Baseline(raises="WindowUnderflowError")}),
    Workload("tables-poly64", "fixture_identity.json", 64, 32,
             (("coords", None), ("grunsky", None),
              ("verify", TABLE_CHECKS)), _poly_pair,
             # Residuals grow steeply with |b|: the worst corner of the
             # coefficient box reaches 4.6e-4, while the median of a run's
             # pairs stayed below 1e-8 on every sample drawn.
             {name: Baseline(ceiling=5e-3, median=1e-7)
              for name in TABLE_CHECKS}),
)}


def selected_checks(workload: Workload) -> Tuple[str, ...]:
    """The checks one operation of ``workload`` runs, sorted."""
    names = dict(workload.commands)["verify"]
    if names is None:
        fixture = json.loads((FIXTURES / workload.fixture).read_text())
        names = fixture["tolerances"]
    return tuple(sorted(names))


def generate_configs(workload: Workload, seed: int) -> List[str]:
    """The run's config texts, a pure function of workload and seed."""
    fixture = json.loads((FIXTURES / workload.fixture).read_text())
    rng = random.Random(f"{workload.name}/{seed}")
    texts = []
    for index in range(workload.pool):
        config = dict(fixture, pair=workload.make_pair(rng, index),
                      order=workload.order,
                      outputs=[{"target": REPORT_PATH, "format": "json"}])
        texts.append(json.dumps(config, sort_keys=True, indent=2) + "\n")
    return texts


@dataclass
class OpResult:
    """What one operation returned.

    ``items`` is the residual ledger of the operation: one entry per
    command and per selected check, each with ``passed``.  ``stdout``
    holds the report each command printed, and ``seconds`` its wall
    time, in command order.
    """

    items: List[dict]
    stdout: List[str]
    seconds: List[float]


def run_op(cli, workload: Workload, config,
           pause: Optional[Callable[[], None]] = None) -> OpResult:
    """Run one operation of ``workload`` on a loaded config.

    A command that raises is a failed item; the operation continues with
    the next command.  Checks are read back from the verify report file
    at full precision.  ``pause``, when given, runs before each command,
    outside its timing.
    """
    items: List[dict] = []
    stdout: List[str] = []
    seconds: List[float] = []
    for command, names in workload.commands:
        out = io.StringIO()
        error = ""
        if pause is not None:
            pause()
        start = time.perf_counter()
        try:
            if command == "verify":
                cli.cmd_verify(config, list(names) if names else None,
                               stdout=out, stderr=io.StringIO())
            elif command == "coords":
                cli.cmd_coords(config, stdout=out)
            else:
                cli.cmd_grunsky(config, stdout=out)
        except Exception as exc:  # noqa: BLE001 - a failed item, recorded
            error = f"{type(exc).__name__}: {exc}"
        seconds.append(time.perf_counter() - start)
        stdout.append(out.getvalue())
        items.append({"name": f"cmd_{command}", "kind": "command",
                      "passed": not error, "error": error})
        if command == "verify" and not error:
            report = json.loads(Path(REPORT_PATH).read_text())
            for name, check in sorted(report["checks"].items()):
                items.append({"name": name, "kind": "check",
                              "residual": check["residual"],
                              "tolerance": check["tolerance"],
                              "passed": check["status"] == "PASS",
                              "error": check["error"]})
    return OpResult(items, stdout, seconds)
