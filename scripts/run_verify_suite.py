"""Run every fixture config's check battery and summarize.

Equivalent to calling ``dtoda verify`` on each file in configs/, but
collects the reports into one table so a single invocation answers "is
the laboratory healthy".  Exit code 1 if any battery has a failure.

Usage:
    python scripts/run_verify_suite.py [--configs DIR]
"""

import argparse
import sys
import time
from pathlib import Path

from dtoda.cli import load_config, run_checks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--configs", default=None,
                    help="directory of experiment configs "
                         "(default: configs/ next to this script)")
    args = ap.parse_args()

    root = Path(args.configs) if args.configs else \
        Path(__file__).resolve().parents[1] / "configs"

    paths = sorted(root.glob("*.json"))
    if not paths:
        print(f"no configs found under {root}", file=sys.stderr)
        return 2

    failures = 0
    for path in paths:
        config = load_config(str(path))
        start = time.perf_counter()
        results = run_checks(config)
        elapsed = time.perf_counter() - start
        bad = [r for r in results if not r["passed"]]
        failures += len(bad)
        print(f"{path.name}: {len(results) - len(bad)}/{len(results)} "
              f"checks passed in {elapsed:.1f}s")
        for r in results:
            mark = "ok  " if r["passed"] else "FAIL"
            extra = f"  [{r['error']}]" if r["error"] else ""
            print(f"  {mark} {r['name']:22s} residual={r['residual']:.3e} "
                  f"tolerance={r['tolerance']:.0e}{extra}")
    print(f"suite: {failures} failing check(s) across {len(paths)} configs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
