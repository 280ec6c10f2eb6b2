"""hjsys benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of eikonal-pair, switching-mc, nonconvex-cli, or ``all`` (each in
turn).  A run is a closed loop of fresh-interpreter worker instances, one at
a time, until the next one would end after S seconds (at least two
instances, or one untraced/traced pair with ``--trace 1``); untraced runs
start with a few workers that stop before the first call, to time set-up.  Every instance
is graded; its output digest must match the other instances of the run and
every earlier run of the same code on the same input (kept under
``.perfbench/state.json``), and with ``--trace 1`` its exact work counts
must match too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (medians over the run's instances, timings scaled to a reference
host speed, see REF_SECONDS) without tracing, the per-layer metrics with
it.  The full record of the run (run facts, every instance,
every check value and bound, spans) goes to ``.perfbench/runs/``.  The exit
code is 0 when every check passed, 1 when one failed, 2 when the benchmark
could not start.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spec import (
    CHECKS_PER_INSTANCE,
    END_TO_END,
    EXACT_COUNTS,
    PER_LAYER,
    SEEDED,
    WORKLOADS,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(BENCH_DIR, "worker.py")

MIN_INSTANCES = 2
SETUP_PROBES = 3  # extra set-ups per untraced run, so setup_s is a median of many
INSTANCE_TIMEOUT_S = 120.0
RUN_CAP_S = 170.0  # a run must end well inside 180 s


# The shared host's speed drifts by up to 1.5-2x over minutes, for every
# kind of work at once.  Before and after each worker the runner times a
# reference process (a fresh interpreter that imports numpy, no hjsys) and
# scales the timing metrics to the host speed at which that takes
# REF_SECONDS.  The unscaled medians stay in the record.
REF_SECONDS = 0.15


def reference_seconds() -> float:
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, "-c", "import numpy"],
        env=worker_env(), cwd=OUT, check=True, capture_output=True, timeout=60,
    )
    return time.monotonic() - t0


class SetupError(Exception):
    """The benchmark cannot run in this tree."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HJSYS_")}
    env["PYTHONPATH"] = SRC
    return env


def warm_up() -> None:
    """Import hjsys once, untimed: fills the bytecode cache, checks the path."""
    if not os.path.isfile(os.path.join(SRC, "hjsys", "__init__.py")):
        raise SetupError(f"no hjsys package under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c", "import hjsys; print(hjsys.__file__)"],
        env=worker_env(),
        cwd=OUT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    where = proc.stdout.strip()
    if proc.returncode != 0 or not where.startswith(os.path.join(SRC, "hjsys")):
        raise SetupError(f"hjsys does not import from {SRC}: {proc.stderr.strip()[-400:]}")


def code_fingerprint() -> str:
    sha = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "hjsys", "**", "*.py"), recursive=True)):
        sha.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


def run_facts() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            caches[key.lower()] = os.sysconf("SC_" + key)
        except (ValueError, OSError):
            caches[key.lower()] = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches_bytes": caches,
        "python": sys.version,
        "platform": platform.platform(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ) if "THREAD" in k},
    }


def run_instance(
    workload: str, sizes: dict, seed: int, trace: int, timeout: float, setup_only: bool = False
) -> dict:
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(OUT, "tmp"))
    result_path = os.path.join(tmp, "result.json")
    cmd = [
        sys.executable, WORKER,
        "--workload", workload,
        "--sizes", json.dumps(sizes),
        "--seed", str(seed),
        "--trace", str(trace),
        "--tmp", tmp,
        "--result", result_path,
    ] + (["--setup-only"] if setup_only else [])
    inst = {
        "trace": trace,
        "setup_only": setup_only,
        "ref_s": [reference_seconds()],
        "load_before": list(os.getloadavg()),
    }
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=tmp, env=worker_env(), capture_output=True, text=True, timeout=timeout
        )
        inst["returncode"] = proc.returncode
        stderr = proc.stderr
    except subprocess.TimeoutExpired as exc:
        inst["returncode"] = None
        stderr = f"timed out after {timeout:.0f} s\n{exc.stderr or ''}"
    inst["elapsed_s"] = time.monotonic() - t_spawn
    inst["load_after"] = list(os.getloadavg())
    inst["ref_s"].append(reference_seconds())
    if inst["returncode"] == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            inst.update(json.load(fh))
        inst["setup_s"] = inst.pop("t_first") - t_spawn
        inst["ok"] = True
    else:
        inst["ok"] = False
        inst["error"] = stderr[-2000:]
        print(f"worker failed ({workload}, trace={trace}):\n{inst['error']}", file=sys.stderr)
    shutil.rmtree(tmp, ignore_errors=True)
    return inst


def run_instances(workload: str, sizes: dict, seed: int, seconds: float, trace: int):
    """Closed loop: one instance at a time until the next would overrun.

    Untraced runs first start SETUP_PROBES workers that stop before the first
    call.  Returns (probes, instances).
    """
    unit = (0, 1) if trace else (0,)
    min_units = 1 if trace else MIN_INSTANCES
    start = time.monotonic()
    probes = [
        run_instance(workload, sizes, seed, 0, INSTANCE_TIMEOUT_S, setup_only=True)
        for _ in range(0 if trace else SETUP_PROBES)
    ]
    instances, unit_times = [], []
    if not all(p["ok"] for p in probes):
        return probes, instances
    while True:
        now = time.monotonic()
        if len(unit_times) >= min_units and now + statistics.median(unit_times) > start + seconds:
            break
        if unit_times and now + max(unit_times) > start + RUN_CAP_S:
            break
        t_unit = time.monotonic()
        for kind in unit:
            timeout = min(INSTANCE_TIMEOUT_S, start + RUN_CAP_S - time.monotonic())
            instances.append(run_instance(workload, sizes, seed, kind, max(timeout, 1.0)))
        unit_times.append(time.monotonic() - t_unit)
        if not all(inst["ok"] for inst in instances[-len(unit):]):
            break
    return probes, instances


def state_path() -> str:
    return os.path.join(OUT, "state.json")


def load_state() -> dict:
    try:
        with open(state_path()) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def grade(workload: str, probes: list, instances: list, reference: dict) -> list:
    """Graded checks of every instance plus the determinism checks.

    A worker that crashed or timed out is charged every check it would have
    made; a set-up probe that failed is charged like a whole instance.
    """
    n_checks = CHECKS_PER_INSTANCE[workload]
    graded = [
        {"instance": "probe", "name": "instance_completed", "passed": False}
        for p in probes
        if not p["ok"]
        for _ in range(n_checks + 1)
    ]
    for k, inst in enumerate(instances):
        if not inst["ok"]:
            graded.extend(
                {"instance": k, "name": "instance_completed", "passed": False}
                for _ in range(n_checks + 1 + inst["trace"])
            )
            continue
        for c in inst["checks"]:
            graded.append({"instance": k, **c})
        passed = all(c["passed"] for c in inst["checks"])
        if "digest" not in reference and passed:
            reference["digest"] = inst["digest"]
        graded.append(
            {
                "instance": k,
                "name": "digest_matches_reference",
                "value": inst["digest"],
                "bound": reference.get("digest"),
                "relation": "==",
                "passed": inst["digest"] == reference.get("digest", inst["digest"]),
            }
        )
        if inst["trace"]:
            counts = {name: inst["layers"][name] for name in EXACT_COUNTS}
            if "counts" not in reference and passed:
                reference["counts"] = counts
            want = reference.get("counts", counts)
            graded.append(
                {
                    "instance": k,
                    "name": "exact_counts_match_reference",
                    "value": counts,
                    "bound": want,
                    "relation": "==",
                    "passed": counts == want,
                }
            )
    return graded


def tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    p = 100.0 * (n - 10) / n
    return {"percentile": p, "value": sorted(values)[n - 11]}


def median_of(instances: list, key: str) -> float:
    return statistics.median(inst[key] for inst in instances)


def raw_timings(probes: list, instances: list) -> dict:
    """Unscaled medians over the run's untraced workers."""
    ok = [inst for inst in instances if inst["ok"] and inst["trace"] == 0]
    if not ok:
        return {}
    started = ok + [p for p in probes if p["ok"]]
    return {
        "wall_s": median_of(ok, "wall_s"),
        "setup_s": median_of(started, "setup_s"),
        "ref_s": statistics.median(r for inst in started for r in inst["ref_s"]),
        "peak_rss_mb": median_of(ok, "peak_rss_mb"),
    }


def end_to_end(raw: dict) -> dict:
    """Timing medians scaled to the reference host speed; memory as is."""
    if not raw:
        return {}
    scale = REF_SECONDS / raw["ref_s"]
    return {
        "wall_s": raw["wall_s"] * scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(instances: list) -> dict:
    traced = [inst for inst in instances if inst["ok"] and inst["trace"] == 1]
    plain = [inst for inst in instances if inst["ok"] and inst["trace"] == 0]
    if not traced or not plain:
        return {}
    out = {
        name: statistics.median_low(inst["layers"][name] for inst in traced)
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    out["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    sizes = WORKLOADS[workload]["smoke" if smoke else "full"]
    runs_dir = os.path.join(OUT, "runs")
    run_index = len(glob.glob(os.path.join(runs_dir, "*.json")))
    started = time.time()
    probes, instances = run_instances(workload, sizes, seed, seconds, trace)

    key = "|".join(
        [workload, json.dumps(sizes, sort_keys=True),
         f"seed={seed}" if workload in SEEDED else "seed=any"]
    )
    fingerprint = code_fingerprint()
    state = load_state()
    reference = state.setdefault(fingerprint, {}).setdefault(key, {})
    graded = grade(workload, probes, instances, reference)
    with open(state_path(), "w") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)

    failed = sum(1 for c in graded if not c["passed"])
    raw = raw_timings(probes, instances)
    metrics = per_layer(instances) if trace else end_to_end(raw)
    walls = [inst["wall_s"] for inst in instances if inst["ok"] and inst["trace"] == 0]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "sizes": sizes,
        "run_index_in_checkout": run_index,
        "started_unix": started,
        "code_fingerprint": fingerprint,
        "facts": {
            **run_facts(),
            **next(
                ({"numpy": i["numpy"], "hjsys": i["hjsys"]} for i in instances if i["ok"]), {}
            ),
        },
        "instance_order": [inst["trace"] for inst in instances],
        "setup_probes": probes,
        "instances": instances,
        "checks": graded,
        "attempted": len(graded),
        "failed": failed,
        "fail_frac": failed / len(graded) if graded else 1.0,
        "wall_s": {
            "median": statistics.median(walls) if walls else None,
            "tail": tail_percentile(walls),
            "count": len(walls),
        },
        "unscaled": raw,
        "ref_seconds": REF_SECONDS,
        "metrics": metrics,
    }
    os.makedirs(runs_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    name = f"{stamp}-{run_index:04d}-{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    record["path"] = os.path.join(runs_dir, name)
    with open(record["path"], "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_summary(rec: dict) -> None:
    n_inst = len(rec["instances"])
    print(
        f"{rec['workload']}: seed {rec['seed']}, trace {rec['trace']}, "
        f"{n_inst} instances {rec['instance_order']}, sizes {json.dumps(rec['sizes'])}"
    )
    by_name = {}
    for c in rec["checks"]:
        if c["name"].endswith("_reference") or c["name"] == "instance_completed":
            continue
        by_name.setdefault((c["name"], c["relation"], c["bound"]), []).append(c)
    for (name, rel, bound), cs in by_name.items():
        vals = " ".join(f"{c['value']:.6g}" for c in cs)
        status = "PASS" if all(c["passed"] for c in cs) else "FAIL"
        print(f"  [{status}] {name}: {vals} {rel} {bound:.6g}")
    for c in rec["checks"]:
        if not c["passed"] and (c["name"].endswith("_reference") or c["name"] == "instance_completed"):
            print(f"  [FAIL] {c['name']} (instance {c['instance']})")
    units = PER_LAYER if rec["trace"] else END_TO_END
    for name, value in rec["metrics"].items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(
        f"  {'fail_frac':32s} {rec['fail_frac']:.6g} "
        f"({rec['failed']} failed of {rec['attempted']} checks)"
    )
    if rec["unscaled"]:
        raw = rec["unscaled"]
        print(
            f"  unscaled: wall_s {raw['wall_s']:.6g} s, setup_s {raw['setup_s']:.6g} s, "
            f"reference {raw['ref_s']:.6g} s (scaled to {REF_SECONDS} s)"
        )
    if not rec["trace"]:
        tail = rec["wall_s"]["tail"]
        print(
            f"  wall_s over {rec['wall_s']['count']} instances; "
            + (f"p{tail['percentile']:.0f} = {tail['value']:.6g} s" if tail
               else "no percentile has ten instances beyond it")
        )
    print(f"  record: {os.path.relpath(rec['path'], ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes; never for recorded numbers")
    args = ap.parse_args()

    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    try:
        warm_up()
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, args.trace, args.smoke) for n in names]
    for rec in records:
        print_summary(rec)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for name, value in rec["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    complete = all(len(r["metrics"]) == len(units) for r in records)
    correct = failed == 0 and attempted > 0 and complete
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
