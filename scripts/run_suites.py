"""Run the named experiment suites and collect their artifacts.

Usage:
    python3 scripts/run_suites.py                            # all five suites
    python3 scripts/run_suites.py identical-gap --n 64 --t-final 6
    python3 scripts/run_suites.py --out results/suites

Each suite prints one line per check; with --out the machine-readable
summary lands in <out>/<suite>/suite.json.  Exit code 1 if any check fails,
2 for an unknown suite, a bad override or one whose sizes ask for more
memory than the host can give, 3 for a numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time

from hjsys.errors import ConfigError, ConvergenceError, DivergenceError
from hjsys.suites import SUITE_RUNNERS, run_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="suite names (default: all)")
    parser.add_argument("--out", default="", help="artifact directory")
    parser.add_argument("--n", type=int, default=None, help="grid size override")
    parser.add_argument("--t-final", type=float, default=None)
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--n-samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    names = args.names or sorted(SUITE_RUNNERS)
    unknown = [name for name in names if name not in SUITE_RUNNERS]
    if unknown:
        print(f"unknown suites: {', '.join(unknown)}", file=sys.stderr)
        return 2

    requested = {
        "n": args.n,
        "t_final": args.t_final,
        "horizon": args.horizon,
        "n_samples": args.n_samples,
        "seed": args.seed,
    }
    failed = []
    for name in names:
        # pass an override only to suites whose signature accepts it
        accepted = inspect.signature(SUITE_RUNNERS[name]).parameters
        overrides = {
            k: v for k, v in requested.items() if v is not None and k in accepted
        }
        t0 = time.perf_counter()
        try:
            result = run_suite(name, **overrides)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            print(f"config error: {name} needs more memory than the host can give: {exc}",
                  file=sys.stderr)
            return 2
        except (DivergenceError, ConvergenceError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        for line in result.summary_lines():
            print(line)
        verdict = "ok" if result.passed else "FAILED"
        print(f"{name}: {verdict} in {time.perf_counter() - t0:.1f} s")
        if args.out:
            result.save(os.path.join(args.out, name))
        if not result.passed:
            failed.append(name)
    if args.out:
        print(f"wrote {args.out}")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
