"""Configuration-driven command line for the Toda laboratory.

One JSON file describes an experiment: a conformal pair, a Laurent
potential, the truncation order, and tolerances.  Subcommands of the ``dtoda``
console script then compute coordinate snapshots (``coords``), pairing
tables (``grunsky``), flow trajectories (``flow``), reduction and
monomial reports (``sigma``, ``special``), or run a named battery of
residual checks against the configured tolerances (``verify``).

Conventions shared by every command:

* complex numbers serialize as two-element arrays ``[re, im]`` in JSON
  and as paired ``*_re`` / ``*_im`` columns in CSV;
* all emitted text is deterministic — two runs over the same config
  produce byte-identical stdout and output files.  Timings, which are
  not deterministic, go to stderr only;
* exit codes: 0 success, 1 at least one verify check failed or a
  computation failed, 2 the config or the command line is malformed.
  A report command whose payload holds a non-finite number fails the
  computation and writes nothing; ``verify`` instead reports a check
  that raised with the residual ``Infinity``.

The ``verify`` battery runs its checks one after another in `CHECKS`
order and reports them by check name.  The checks hold the interpreter
lock on small arrays, so worker threads would only slow the battery down.
A command reads every derived series from one `context.PairContext`, so
each is built once per command; nothing is kept across commands.  The
reflection checks and ``sigma`` read the configured pair, too.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import series as S
from .series import LaurentSeries
from . import conformal_pair as CP
from .hamiltonian import HamiltonianH, gauge_shift_constants
from . import grunsky as G
from . import coords as C
from . import flows as F
from . import plan
from . import reductions as R
from . import special as SP
from .context import PairContext


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending field."""


# ---------------------------------------------------------------------------
# configuration model


@dataclass(frozen=True)
class OutputSpec:
    """One output file request: where to write and in which format."""

    target: str
    format: str  # "json" or "csv"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated contents of an experiment config file.

    ``terms`` holds the mixed monomials (both exponents nonzero) that
    form the core potential; pure one-variable monomials from the same
    config list are split off into ``gauge`` since they shift the
    coordinates by constants instead of deforming the dynamics.  Both are
    ``(mu, nu, c)`` triples in the config's convention c * z1^mu * z2^(-nu).
    """

    terms: Tuple[Tuple[int, int, complex], ...]
    gauge: Tuple[Tuple[int, int, complex], ...]
    pair_kind: str  # "coefficients" | "sigma_from_g" | "random"
    pair_data: dict
    order: int
    tolerances: Dict[str, float]
    outputs: Tuple[OutputSpec, ...] = ()

    def hamiltonian(self) -> HamiltonianH:
        return HamiltonianH.of(*self.terms)

    def build_pair(self):
        try:
            if self.pair_kind == "coefficients":
                return CP.from_coefficients(
                    self.pair_data["g"], self.pair_data["f"], self.order)
            if self.pair_kind == "sigma_from_g":
                g = LaurentSeries.from_pairs(self.pair_data["g"],
                                             S.AT_INFINITY)
                return CP.sigma_conjugate(g, order=self.order)
            return CP.random_pair(
                seed=self.pair_data["seed"], decay=self.pair_data["decay"],
                order=self.order, real=self.pair_data["real"])
        except S.SeriesError as exc:
            raise ConfigError(f"config field 'pair': {exc}") from exc

    def context(self) -> PairContext:
        """The command's one context: the configured pair, potential, gauge and order."""
        return PairContext(self.build_pair(), self.hamiltonian(), self.gauge, self.order)


def _fail(field_name: str, message: str) -> None:
    raise ConfigError(f"config field {field_name!r}: {message}")


def _as_complex(value, field_name: str) -> complex:
    """Accept a bare real or an [re, im] pair, every part finite."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in parts):
        _fail(field_name, "expected a real number or an [re, im] pair")
    return complex(*(_as_real(x, field_name) for x in parts))


def _as_int(value, field_name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(field_name, "expected an integer")
    return value


def _as_real(value, field_name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field_name, "expected a real number")
    if not math.isfinite(value):
        _fail(field_name, f"expected a finite number, got {value}")
    return float(value)


def _coeff_map(raw, field_name: str) -> Dict[int, complex]:
    if not isinstance(raw, dict) or not raw:
        _fail(field_name, "expected a non-empty map of exponent -> value")
    out: Dict[int, complex] = {}
    for key, val in raw.items():
        try:
            exp = int(key)
        except (TypeError, ValueError):
            _fail(field_name, f"exponent key {key!r} is not an integer")
        if exp in out:
            _fail(field_name, f"two keys name exponent {exp}")
        out[exp] = _as_complex(val, f"{field_name}[{key}]")
    return out


def _parse_hamiltonian(raw) -> Tuple[Tuple[Tuple[int, int, complex], ...],
                                     Tuple[Tuple[int, int, complex], ...]]:
    if not isinstance(raw, list) or not raw:
        _fail("hamiltonian", "expected a non-empty list of terms")
    terms: List[Tuple[int, int, complex]] = []
    gauge: List[Tuple[int, int, complex]] = []
    for i, item in enumerate(raw):
        where = f"hamiltonian[{i}]"
        if not isinstance(item, dict):
            _fail(where, "expected an object with mu, nu, re, im")
        extra = set(item) - {"mu", "nu", "re", "im"}
        if extra:
            _fail(where, f"unknown keys {sorted(extra)}")
        if "mu" not in item or "nu" not in item:
            _fail(where, "both mu and nu are required")
        mu = _as_int(item["mu"], f"{where}.mu")
        nu = _as_int(item["nu"], f"{where}.nu")
        c = complex(_as_real(item.get("re", 0.0), f"{where}.re"),
                    _as_real(item.get("im", 0.0), f"{where}.im"))
        if mu == 0 and nu == 0:
            _fail(where, "constant term (mu=nu=0) is not allowed")
        if c == 0:
            _fail(where, "zero coefficient term is not allowed")
        (terms if mu and nu else gauge).append((mu, nu, c))
    if not terms:
        _fail("hamiltonian", "needs at least one mixed term "
              "(both exponents nonzero)")
    return tuple(terms), tuple(gauge)


def _parse_pair(raw) -> Tuple[str, dict]:
    if not isinstance(raw, dict):
        _fail("pair", "expected an object")
    kinds = [k for k in ("coefficients", "sigma_from_g", "random") if k in raw]
    if len(kinds) != 1:
        _fail("pair", "exactly one of coefficients / sigma_from_g / random "
              "must be present")
    kind = kinds[0]
    body = raw[kind]
    if kind == "coefficients":
        if not isinstance(body, dict) or set(body) != {"g", "f"}:
            _fail("pair.coefficients", "expected maps g and f")
        return kind, {"g": _coeff_map(body["g"], "pair.coefficients.g"),
                      "f": _coeff_map(body["f"], "pair.coefficients.f")}
    if kind == "sigma_from_g":
        return kind, {"g": _coeff_map(body, "pair.sigma_from_g")}
    if not isinstance(body, dict):
        _fail("pair.random", "expected an object with seed and decay")
    extra = set(body) - {"seed", "decay", "real"}
    if extra:
        _fail("pair.random", f"unknown keys {sorted(extra)}")
    if "seed" not in body or "decay" not in body:
        _fail("pair.random", "seed and decay are required")
    decay = _as_real(body["decay"], "pair.random.decay")
    if not 0 < decay < 1:
        _fail("pair.random.decay", "must lie strictly between 0 and 1")
    real = body.get("real", False)
    if not isinstance(real, bool):
        _fail("pair.random.real", "expected true or false")
    return kind, {"seed": _as_int(body["seed"], "pair.random.seed"),
                  "decay": decay, "real": real}


def _parse_outputs(raw) -> Tuple[OutputSpec, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        _fail("outputs", "expected a list")
    specs = []
    for i, item in enumerate(raw):
        where = f"outputs[{i}]"
        if not isinstance(item, dict) or set(item) != {"target", "format"}:
            _fail(where, "expected an object with target and format")
        if not isinstance(item["target"], str) or not item["target"]:
            _fail(f"{where}.target", "expected a non-empty path")
        if item["format"] not in ("json", "csv"):
            _fail(f"{where}.format", "expected 'json' or 'csv'")
        specs.append(OutputSpec(item["target"], item["format"]))
    return tuple(specs)


def load_config(path: str) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        _fail("<root>", "expected a JSON object")
    known = {"hamiltonian", "pair", "order", "samples_M", "eps_fd",
             "tolerances", "outputs"}
    extra = set(raw) - known
    if extra:
        _fail("<root>", f"unknown keys {sorted(extra)}")
    for req in ("hamiltonian", "pair", "order"):
        if req not in raw:
            _fail(req, "is required")

    order = _as_int(raw["order"], "order")
    if order < 4:
        _fail("order", "must be at least 4")

    # no check reads samples_M or eps_fd any more; the keys stay valid in old configs
    if "samples_M" in raw:
        least, samples_m = 4 * (2 * order + 1), _as_int(raw["samples_M"], "samples_M")
        if samples_m & (samples_m - 1) or samples_m < least:
            _fail("samples_M", "must be a power of two with "
                  f"samples_M >= 4*(2*order+1) = {least}")
    if not 1e-8 < _as_real(raw.get("eps_fd", 1e-5), "eps_fd") < 1e-2:
        _fail("eps_fd", "must lie strictly between 1e-8 and 1e-2")

    tol_raw = raw.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        _fail("tolerances", "expected a map of check name -> tolerance")
    tolerances: Dict[str, float] = {}
    for name, value in tol_raw.items():
        if name not in CHECKS:
            _fail(f"tolerances.{name}",
                  f"unknown check; valid names: {', '.join(sorted(CHECKS))}")
        tol = _as_real(value, f"tolerances.{name}")
        if tol < 0:
            _fail(f"tolerances.{name}", "must be non-negative")
        tolerances[name] = tol

    terms, gauge = _parse_hamiltonian(raw["hamiltonian"])
    try:
        HamiltonianH.of(*terms)
    except ValueError as exc:
        _fail("hamiltonian", str(exc))
    pair_kind, pair_data = _parse_pair(raw["pair"])
    return ExperimentConfig(terms=terms, gauge=gauge, pair_kind=pair_kind,
                            pair_data=pair_data, order=order,
                            tolerances=tolerances,
                            outputs=_parse_outputs(raw.get("outputs")))


# ---------------------------------------------------------------------------
# serialization helpers


def _cx(z: complex) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


def _dump_json(obj, allow_nan: bool = True) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=allow_nan) + "\n"


def _dump_csv(rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _write_outputs(outputs: Sequence[OutputSpec], json_text: str,
                   csv_rows: Callable[[], Sequence[Sequence]]) -> None:
    """Write each output; the CSV rows are built only for a CSV output."""
    for spec in outputs:
        with open(spec.target, "w", encoding="utf-8") as fh:
            fh.write(json_text if spec.format == "json"
                     else _dump_csv(csv_rows()))


def _report(config: ExperimentConfig, stdout, json_obj, csv_rows,
            shown=None, table=None) -> int:
    """Print ``shown`` (default: the payload) and write the outputs, unless
    a payload field holds a number JSON cannot carry (NaN, Infinity).
    ``table`` = (key, square array, lo) is the last field, by `_table_json`,
    rendered only when the payload is printed or written."""
    try:
        text = _dump_json(dict(json_obj, **({table[0]: None} if table else {})),
                          allow_nan=False)
    except ValueError:
        for key, value in json_obj.items():  # name the offending field
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise S.SeriesError(f"report field {key!r} is not finite") from None
        raise
    if table is not None:
        key, array, lo = table
        if not np.isfinite(array).all():
            raise S.SeriesError(f"report field {key!r} is not finite")
        if shown is None or any(spec.format == "json" for spec in config.outputs):
            text = text.replace(f'"{key}": null', f'"{key}": ' + _table_json(array, lo), 1)
    stdout.write(text if shown is None else _dump_json(shown))
    _write_outputs(config.outputs, text, csv_rows)
    return 0


def _mode_map(values: Dict[int, complex]) -> Dict[str, List[float]]:
    return {str(n): _cx(z) for n, z in values.items()}


def _mode_rows(order: int, t: Dict[int, complex], v: Dict[int, complex],
               v0: complex) -> Callable[[], List[list]]:
    """Builder of the CSV rows (n, t, v) for n = -order..order, with v0 in
    the v column at n = 0."""
    return lambda: [["n", "t_re", "t_im", "v_re", "v_im"]] + [
        [n] + [f"{x:.17g}" for z in (t.get(n, 0.0), v0 if n == 0 else v.get(n, 0.0))
               for x in (z.real, z.imag)] for n in range(-order, order + 1)]


# json.dumps with an indent runs its pure-Python encoder, one call per value,
# and an order-64 table has 16,641 entries; so the table block is written
# from the array, with the bytes json.dumps(sort_keys=True, indent=2) gives.
def _table_json(table: np.ndarray, lo: int) -> str:
    """The map {"m,n": [re, im]}, at indent level 1, of a square array whose
    [0, 0] entry has indices (lo, lo).  Keys come in sorted-string order
    (the str-sorted labels, nested); floats go through ``float.__repr__``."""
    labels = sorted(range(lo, lo + len(table)), key=str)
    cells = table[np.ix_(np.subtract(labels, lo), np.subtract(labels, lo))]
    columns = [f'{n}": [\n      %r,\n      %r\n    ]' for n in labels]
    rows = [(f'    "{m},' + f',\n    "{m},'.join(columns)) % tuple(row)  # re, im interleaved
            for m, row in zip(labels, cells.view(np.float64).tolist())]
    return "{\n" + ",\n".join(rows) + "\n  }"


def _table_rows(table: np.ndarray, lo: int) -> List[list]:
    """The (m, n, re, im) CSV rows of the same array, in index order."""
    return [["m", "n", "re", "im"]] + [
        [m + lo, n + lo, f"{z.real:.17g}", f"{z.imag:.17g}"]
        for m, row in enumerate(table.tolist()) for n, z in enumerate(row)]


# ---------------------------------------------------------------------------
# verify battery

# Probe gauge used by the gauge_covariance check: one monomial on each
# variable, chosen so both shift rules (time-like and dual-like) fire.
_PROBE_GAUGE = ((1, 0, 1.0), (0, -2, 0.5))


def _check_t0_duality(ctx) -> float:
    t, _v, alt = ctx.moments(plan.probe_order(ctx.order), ctx.gauge).times
    return abs(t[0] - alt)


def _check_lax(ctx) -> float:
    ns = (1, -1, 2, -2, 3, -3)
    ctx.flow_fields((0,) + ns, pad=plan.check_pad(ctx.pair))  # one batch for every index
    return float(np.max([F.lax_check(ctx, n, ctx.order) for n in ns]
                        + [F.canonical_bracket_check(ctx)]))


def _check_v0_t0_b00(ctx) -> float:
    # dv_0 along Q_0 against b00 = -log(b), which grunsky_table sets by construction
    slope = S.residue_mul(ctx.tangents((0,))[0], S.sub(*ctx.moments(ctx.pair.order, ()).logs))
    return abs(slope - 2 * cmath.log(ctx.pair.b))


def _check_gauge_covariance(ctx) -> float:
    gauge = ctx.gauge if ctx.gauge else _PROBE_GAUGE
    order = plan.probe_order(ctx.order)
    t0, v0_map = ctx.snapshot.t, ctx.snapshot.v
    t1, v1_map, _ = ctx.moments(order, gauge).times
    t_shift, v_shift, v0_shift = gauge_shift_constants(gauge, order)
    defects = [abs(t1[n] - t0[n] - t_shift.get(n, 0.0)) for n in t0]
    defects += [abs(v1_map[n] - v0_map[n] - v_shift.get(n, 0.0))
                for n in v0_map]
    dv0 = ctx.moments(ctx.pair.order, gauge).v0 - ctx.snapshot.v0
    defects.append(abs(dv0 - v0_shift))
    # The flow fields themselves must not feel the gauge at all.
    fields = [ctx.flow_fields((1, -2), g).values() for g in ((), gauge)]
    for plain, dressed in zip(*fields):
        defects += [S.max_abs_diff_reliable(getattr(plain, part), getattr(dressed, part))
                    for part in ("dg", "df", "u_series")]
    return float(np.max(defects))


# name -> (default tolerance, residual read off the command's PairContext).
# The names double as the vocabulary of the config's tolerances map and the
# --checks flag.  Table checks read the config-order table; mode-probing
# checks run at `plan.probe_order`, flow tangents at `plan.jacobian_order` and
# `plan.gradient_order`.  The battery runs in this order, so a check that
# builds flow fields as one batch comes before the checks that read some of
# them: jacobian's tangents hold gauge_covariance's (1, -2), and lax's padded
# batch the n = 0 field that string and canonical_bracket read.
CHECKS: Dict[str, Tuple[float, Callable[[PairContext], float]]] = {
    "grunsky_symmetry": (1e-10, lambda ctx: ctx.table(ctx.order).symmetry_defect),
    "grunsky_dual_path": (1e-10, lambda ctx: G.table_difference(
        ctx.table(ctx.order), G.grunsky_via_inverse(ctx.pair, ctx.order))),
    "faber_identity": (1e-9, lambda ctx: G.faber_expansion_defect(ctx.pair, ctx.table(ctx.order))),
    "t0_duality": (1e-10, _check_t0_duality),
    "plemelj": (1e-9, lambda ctx: ctx.moments(plan.probe_order(ctx.order), ctx.gauge).plemelj),
    "z2_closed_form": (1e-10, lambda ctx: abs(ctx.snapshot.z_parts[1] - ctx.snapshot.z2_closed)),
    "jacobian": (1e-6, lambda ctx: F.jacobian_check(ctx, plan.jacobian_order(ctx.order))),
    "lax": (1e-8, _check_lax),
    "string": (1e-9, lambda ctx: F.string_check(ctx)),
    "canonical_bracket": (1e-8, lambda ctx: F.canonical_bracket_check(ctx)),
    "tau_gradient": (1e-6, lambda ctx: F.tau_gradient_check(
        ctx, plan.gradient_order(ctx.order))["max"]),
    "v0_t0_b00": (1e-6, _check_v0_t0_b00),
    "gauge_covariance": (1e-10, _check_gauge_covariance),
    "sigma_reality": (1e-10, lambda ctx: R.sigma_coordinate_check(ctx.snapshot, ctx.h)),
    "real_subspace": (1e-10, lambda ctx: R.real_subspace_check(ctx.snapshot)),
    "green_identity": (1e-10, lambda ctx: R.green_identity_check(
        ctx.table(plan.probe_order(ctx.order)), ctx.pair.g, ctx.h)),
    "nontrivial_identity": (1e-9, lambda ctx: SP.nontrivial_identity(
        ctx.monomial_case, *ctx.monomial)),
    "special_logtau": (1e-9, lambda ctx: abs(SP.special_logtau(
        ctx.monomial_case, *ctx.monomial) - ctx.coords(ctx.monomial_case.order).logT)),
    "generating_identity": (1e-9, lambda ctx: ctx.generating(ctx.monomial_case.order).residual),
}


def run_checks(config: ExperimentConfig,
               names: Optional[Sequence[str]] = None) -> List[dict]:
    """Run the selected checks in `CHECKS` order; results sorted by check name.

    Selection order: an explicit ``names`` argument wins; otherwise the
    config's tolerances map names the battery; an empty map means every
    registered check at its default tolerance.
    """
    if names is None:
        names = config.tolerances or CHECKS
    else:
        if not names:
            raise ConfigError("--checks must name at least one check")
        for name in names:
            if name not in CHECKS:
                raise ConfigError(
                    f"unknown check {name!r}; valid names: "
                    f"{', '.join(sorted(CHECKS))}")

    ctx = config.context()

    def one(name: str) -> dict:
        tol = config.tolerances.get(name, CHECKS[name][0])
        start = time.perf_counter()
        try:
            residual = float(CHECKS[name][1](ctx))
            error = ""
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            residual = math.inf
            error = f"{type(exc).__name__}: {exc}"
        return {"name": name, "residual": residual, "tolerance": tol,
                "passed": residual <= tol,
                "seconds": time.perf_counter() - start, "error": error}

    results = {name: one(name) for name in CHECKS if name in names}
    return [results[name] for name in sorted(results)]


def _render_verify(results: List[dict]) -> Tuple[str, str]:
    """Deterministic stdout report and stderr timing block."""
    width = max(len(r["name"]) for r in results)
    out_lines = []
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        line = (f"{r['name']:<{width}}  residual={r['residual']:.6e}  "
                f"tolerance={r['tolerance']:.6e}  {status}")
        if r["error"]:
            line += f"  [{r['error']}]"
        out_lines.append(line)
    n_pass = sum(r["passed"] for r in results)
    out_lines.append(f"verify: {n_pass}/{len(results)} checks passed")
    err_lines = [f"# {r['name']}: {r['seconds']:.3f}s" for r in results]
    err_lines.append(f"# total: {sum(r['seconds'] for r in results):.3f}s")
    return "\n".join(out_lines) + "\n", "\n".join(err_lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def cmd_verify(config: ExperimentConfig,
               names: Optional[Sequence[str]] = None,
               stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    results = run_checks(config, names)
    report, timings = _render_verify(results)
    stdout.write(report)
    stderr.write(timings)
    json_obj = {"checks": {r["name"]: {
        "residual": r["residual"], "tolerance": r["tolerance"],
        "status": "PASS" if r["passed"] else "FAIL", "error": r["error"]}
        for r in results},
        "passed": int(sum(r["passed"] for r in results)),
        "selected": [r["name"] for r in results]}
    _write_outputs(config.outputs, _dump_json(json_obj), lambda: [
        ["check", "residual", "tolerance", "status"]] + [
        [r["name"], f"{r['residual']:.17g}", f"{r['tolerance']:.17g}",
         "PASS" if r["passed"] else "FAIL"] for r in results])
    return 0 if all(r["passed"] for r in results) else 1


def _snapshot_payload(config: ExperimentConfig):
    """Coordinate snapshot at the config order, including gauge shifts
    where they apply.

    The tau parts come from the core potential alone: gauge monomials
    shift the coordinates by constants and leave the dynamics untouched.
    The context and its series are dropped on return, before the payload
    is written.
    """
    ctx = config.context()
    snap = ctx.coords(config.order)
    (t, v, alt), v0 = (ctx.moments(config.order, config.gauge).times,
                       ctx.moments(ctx.pair.order, config.gauge).v0)
    json_obj = {
        "order": snap.order,
        "t": _mode_map(t), "v": _mode_map(v),
        "t0": _cx(t[0]), "t0_alt": _cx(alt), "v0": _cx(v0),
        "logT": _cx(snap.logT),
        "z_parts": [_cx(z) for z in snap.z_parts],
        "z2_closed": _cx(snap.z2_closed),
    }
    return json_obj, _mode_rows(snap.order, t, v, v0)


def cmd_coords(config: ExperimentConfig, stdout=None) -> int:
    stdout = stdout or sys.stdout
    return _report(config, stdout, *_snapshot_payload(config))


def cmd_grunsky(config: ExperimentConfig, stdout=None) -> int:
    stdout = stdout or sys.stdout
    table = G.grunsky_table(config.build_pair(), config.order)
    json_obj = {"order": table.order, "b00": _cx(table.b00),
                "symmetry_defect": table.symmetry_defect}
    return _report(config, stdout, json_obj,
                   lambda: _table_rows(table.b, -table.order),
                   dict(json_obj, entry_count=table.b.size),
                   table=("entries", table.b, -table.order))


def cmd_flow(config: ExperimentConfig, n: int, eps: float, steps: int,
             method: str = "rk4", stdout=None) -> int:
    stdout = stdout or sys.stdout
    if steps < 1:
        raise ConfigError("steps must be a positive integer")
    if not math.isfinite(eps):
        raise ConfigError("eps must be a finite number")
    if abs(n) > config.order:
        raise ConfigError(f"|--n| must not exceed the order {config.order}, got {n}")
    pair = config.build_pair()
    h = config.hamiltonian()
    trajectory = []
    for k in range(steps + 1):
        snap = C.toda_coordinates(pair, h, plan.gradient_order(config.order))
        trajectory.append({"step": k, "time": k * eps, "b": _cx(pair.b),
                           "t0": _cx(snap.t[0]), "v0": _cx(snap.v0),
                           "logT": _cx(snap.logT)})
        if k < steps:
            pair = F.step(pair, h, n, eps, method=method)
    json_obj = {"direction": n, "eps": eps, "method": method,
                "trajectory": trajectory}
    return _report(config, stdout, json_obj, lambda: [
        ["step", "time", "b_re", "b_im", "t0_re", "t0_im",
         "v0_re", "v0_im", "logT_re", "logT_im"]] + [
        [p["step"], f"{p['time']:.17g}"]
        + [f"{x:.17g}" for xy in (p["b"], p["t0"], p["v0"], p["logT"])
           for x in xy] for p in trajectory])


def cmd_sigma(config: ExperimentConfig, stdout=None) -> int:
    stdout = stdout or sys.stdout
    ctx = config.context()
    if ctx.pair.b.imag != 0.0:
        raise ConfigError("config field 'pair': the reflection reduction needs a "
                          f"real leading coefficient b, got b = {ctx.pair.b}")
    try:
        R.require_sigma_admissible(ctx.h)
    except R.SigmaAdmissibilityError as exc:
        raise ConfigError(f"config field 'hamiltonian': {exc}") from exc
    order = plan.probe_order(config.order)
    reality = R.sigma_coordinate_check(ctx.snapshot, ctx.h)
    green, kernel = R.green_identity(ctx.table(order), ctx.pair.g, ctx.h)
    json_obj = {"order": order, "reality_defect": reality,
                "green_identity_defect": green}
    return _report(config, stdout, json_obj,
                   lambda: _table_rows(kernel, 0), json_obj,
                   table=("kernel", kernel, 0))


def _special_case(config: ExperimentConfig, mu: int, nu: int):
    """(closed form, general snapshot, generating report) of the monomial at
    `plan.monomial_order`; the context is dropped on return."""
    pair = config.build_pair()
    ctx = PairContext(pair, HamiltonianH.of((mu, nu, 1.0)), (), config.order)
    k = plan.monomial_order(pair, mu, nu)
    return ctx.special(k), ctx.coords(k), ctx.generating(k)


def cmd_special(config: ExperimentConfig, mu: int, nu: int,
                stdout=None) -> int:
    stdout = stdout or sys.stdout
    if mu == 0 or nu == 0:
        raise ConfigError("--mu and --nu must be nonzero")
    if config.order < abs(mu) + abs(nu) + 2:
        raise ConfigError(f"order {config.order} must exceed |mu| + |nu| + 1 "
                          f"= {abs(mu) + abs(nu) + 1}")
    sp, general, report = _special_case(config, mu, nu)
    json_obj = {
        "mu": mu, "nu": nu, "order": sp.order,
        "t": _mode_map(sp.t), "v": _mode_map(sp.v),
        "t0": _cx(sp.t[0]), "t0_alt": _cx(sp.t0_alt), "v0": _cx(sp.v0),
        "logT": _cx(sp.logT),
        "special_logtau": _cx(SP.special_logtau(sp, mu, nu)),
        "general_logT": _cx(general.logT),
        "nontrivial_identity": SP.nontrivial_identity(sp, mu, nu),
        "generating_identity": report.residual,
        "generating_derivative_form": report.derivative,
        "generating_offset": _cx(report.offset),
    }
    return _report(config, stdout, json_obj,
                   _mode_rows(sp.order, sp.t, sp.v, sp.v0))


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtoda",
        description="Numerical laboratory for dispersionless Toda flows "
                    "on truncated conformal-map pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON experiment config")
        return p

    add("coords", "Toda coordinate snapshot of the configured experiment")
    add("grunsky", "pairing-table report for the configured pair")

    p_flow = add("flow", "integrate one flow direction and dump the "
                         "trajectory")
    p_flow.add_argument("--n", type=int, required=True,
                        help="flow direction index, |n| <= the config order "
                             "(nonzero for dynamics, 0 for the dual direction)")
    p_flow.add_argument("--eps", type=float, required=True,
                        help="step size per integration step")
    p_flow.add_argument("--steps", type=int, required=True,
                        help="number of integration steps")
    p_flow.add_argument("--method", choices=("euler", "rk4"),
                        default="rk4", help="integrator (default rk4)")

    p_verify = add("verify", "run residual checks against tolerances")
    p_verify.add_argument("--checks", default=None,
                          help="comma-separated subset of check names "
                               "(default: the config's tolerances map, or "
                               "every registered check)")

    add("sigma", "reflection-reduction report (reality and kernel "
                 "identities)")

    p_special = add("special", "closed-form report for a single-monomial "
                               "potential")
    p_special.add_argument("--mu", type=int, required=True,
                           help="exponent of the first variable")
    p_special.add_argument("--nu", type=int, required=True,
                           help="dual exponent of the second variable")
    return parser


@np.errstate(all="ignore")  # a non-finite result is reported as one diagnostic line
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "coords":
            return cmd_coords(config)
        if args.command == "grunsky":
            return cmd_grunsky(config)
        if args.command == "flow":
            return cmd_flow(config, args.n, args.eps, args.steps,
                            method=args.method)
        if args.command == "verify":
            names = None
            if args.checks is not None:
                names = [s.strip() for s in args.checks.split(",")
                         if s.strip()]
            return cmd_verify(config, names)
        if args.command == "sigma":
            return cmd_sigma(config)
        return cmd_special(config, args.mu, args.nu)
    except ConfigError as exc:
        print(f"dtoda: error: {exc}", file=sys.stderr)
        return 2
    except S.SeriesError as exc:
        print(f"dtoda: computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
