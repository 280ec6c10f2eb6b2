"""One instance of one workload, in a fresh interpreter.

Run by ``run.py``; not meant to be called by hand.  Imports hjsys, builds the
inputs, optionally installs the tracer, then times the workload from its
first call to its graded result and writes one JSON result file.

    python3 worker.py --workload NAME --sizes JSON --seed N --trace 0|1
                      --tmp DIR --result PATH
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time

import numpy as np

import hjsys
from hjsys import cli

# mainresult-nonconvex system, as defined by the suite of that name
NONCONVEX_HAMILTONIANS = [
    {
        "id": "nonconvex_bs00",
        "params": {
            "f": {"const": 1.0, "terms": [{"k": [1], "cos": -1.0}]},
            "q": [{"terms": [{"k": [1], "sin": 0.3}]}],
            "F": {"const": 1.0, "angle": [{"j": 1, "cos": 0.3}]},
        },
    },
    {
        "id": "nonconvex_bs00",
        "params": {
            "f": {"const": 0.8, "terms": [{"k": [1], "cos": -0.8}]},
            "q": [{"terms": [{"k": [1], "sin": 0.2}]}],
            "F": {"const": 1.0, "angle": [{"j": 1, "cos": -0.25}]},
        },
    },
]

# wall-time fields left out of the suite digest
_TIMED_CHECKS = {"estimator_runtime_seconds"}


def _check(name, value, bound, relation, passed):
    return {
        "name": name,
        "value": float(value),
        "bound": float(bound),
        "relation": relation,
        "passed": bool(passed),
    }


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, allow_nan=True).encode()
    ).hexdigest()


def _files(root: str) -> list:
    out = []
    for dirpath, _, names in os.walk(root):
        for fname in names:
            out.append(os.path.join(dirpath, fname))
    return sorted(out)


class SuiteWorkload:
    """eikonal-pair and switching-mc: one ``run_suite`` call."""

    def __init__(self, sizes: dict, seed: int, tmp: str):
        self.kwargs = {k: v for k, v in sizes.items() if k != "suite"}
        self.suite = sizes["suite"]
        if self.suite == "appendix-mc":
            self.kwargs["seed"] = seed % 2**32

    def run(self):
        self.result = hjsys.run_suite(self.suite, **self.kwargs)

    def grade(self) -> list:
        return [
            _check(c.name, c.value, c.bound, c.relation, c.passed)
            for c in self.result.checks
        ]

    def digest(self) -> str:
        d = self.result.to_dict()
        del d["elapsed_seconds"], d["passed"]
        for c in d["checks"]:
            if c["name"] in _TIMED_CHECKS:
                del c["value"], c["passed"]
        return _sha(d)

    def artifact_bytes(self) -> int:
        return 0


class NonconvexCliWorkload:
    """nonconvex-cli: ``hjsys evolve`` then ``hjsys diagnose`` on its output."""

    def __init__(self, sizes: dict, seed: int, tmp: str):
        self.n = int(sizes["n"])
        self.t_final = float(sizes["t_final"])
        self.evolve_out = os.path.join(tmp, "evolve")
        self.diag_out = os.path.join(tmp, "diagnose")
        self.traj_dir = os.path.join(self.evolve_out, "trajectory")
        evolve = {
            "system": {
                "grid": {"dim": 1, "n": self.n},
                "coupling": {"name": "symmetric_pair"},
                "hamiltonians": NONCONVEX_HAMILTONIANS,
            },
            "solver": {"t_final": self.t_final, "snapshot_every": sizes["snapshot_every"]},
            "u0": {"kind": "zeros"},
        }
        diagnose = {"trajectory_dir": self.traj_dir, "c": "measured"}
        self.evolve_cfg = os.path.join(tmp, "evolve.json")
        self.diag_cfg = os.path.join(tmp, "diagnose.json")
        for path, cfg in ((self.evolve_cfg, evolve), (self.diag_cfg, diagnose)):
            with open(path, "w") as fh:
                json.dump(cfg, fh)

    def run(self):
        self.rc_evolve = cli.main(
            ["evolve", "--config", self.evolve_cfg, "--out", self.evolve_out]
        )
        self.rc_diag = cli.main(
            ["diagnose", "--config", self.diag_cfg, "--out", self.diag_out]
        )

    def grade(self) -> list:
        checks = [
            _check("evolve_exit_code", self.rc_evolve, 0, "==", self.rc_evolve == 0),
            _check("diagnose_exit_code", self.rc_diag, 0, "==", self.rc_diag == 0),
        ]
        h = 1.0 / self.n
        try:
            with open(os.path.join(self.traj_dir, "manifest.json")) as fh:
                dt = float(json.load(fh)["meta"]["dt"])
            with open(os.path.join(self.diag_out, "convergence.json")) as fh:
                report = json.load(fh)
        except (OSError, KeyError, ValueError):
            nan = float("nan")
            return checks + [
                _check("drift_near_zero", nan, 5 * h, "<=", False),
                _check("monotone_tail", nan, 0.0, ">=", False),
                _check("oscillation_tail", nan, 5 * h, "<=", False),
            ]
        drift = max(abs(c) for c in report["c_used"])
        tail = [r[2] for r in report["p_eta_table"] if r[1] >= 0.75 * self.t_final - 1e-9]
        worst_p = max(tail) if tail else float("inf")
        return checks + [
            _check("drift_near_zero", drift, 5 * h, "<=", drift <= 5 * h),
            _check(
                "monotone_tail",
                report["monotone_tail_worst"],
                -5 * (h + dt),
                ">=",
                report["monotone_tail_ok"] is True,
            ),
            _check("oscillation_tail", worst_p, 5 * (h + dt), "<=", worst_p <= 5 * (h + dt)),
        ]

    def digest(self) -> str:
        sha = hashlib.sha256()
        for root in (self.evolve_out, self.diag_out):
            for path in _files(root):
                sha.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    sha.update(fh.read())
        return sha.hexdigest()

    def artifact_bytes(self) -> int:
        return sum(
            os.path.getsize(p) for root in (self.evolve_out, self.diag_out) for p in _files(root)
        )


WORKLOADS = {
    "eikonal-pair": SuiteWorkload,
    "switching-mc": SuiteWorkload,
    "nonconvex-cli": NonconvexCliWorkload,
}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--sizes", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true", help="stop before the first call")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](json.loads(args.sizes), args.seed, args.tmp)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    t_first = time.monotonic()
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump({"t_first": t_first}, fh)
        return
    t0 = time.perf_counter()
    workload.run()
    checks = workload.grade()
    wall_s = time.perf_counter() - t0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    artifact_bytes = workload.artifact_bytes()
    out = {
        "t_first": t_first,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "digest": workload.digest(),
        "artifact_bytes": artifact_bytes,
        "numpy": np.__version__,
        "hjsys": hjsys.__version__,
    }
    if tracer is not None:
        summary = tracer.summary()
        out["layers"] = tracing.layer_metrics(summary, wall_s, artifact_bytes)
        out["tracer"] = summary
    with open(args.result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
