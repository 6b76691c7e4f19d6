"""The benchmark's one command.

Driver form (the contract in ``BENCHMARK.json``; one workload, one run,
the result as the last line of stdout)::

    python3 bench/run.py --workload serve_churn --seed 7 --seconds 15 --trace 0

Suite form (every workload, ``--repeats`` runs each plus one traced
run with ``--trace``; medians by name and unit, result file in the
workdir)::

    python -m bench.run --seed 90210 [--repeats N] [--scale F]
        [--seconds S] [--workdir DIR] [--trace]

Comparison of two suite results against the bounds of
``BENCHMARK.json``; exits non-zero when any pair is outside its bound::

    python -m bench.run --compare A.json B.json

The parent generates the workload's inputs from the seed into files
(that time is half of ``setup_s``), then runs the workload in a fresh
child process (``bench/child.py``) that receives only those files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench: {SRC}/repro not found — the benchmark drives the "
             "repro package from a source checkout")
# Run as a script, sys.path starts with bench/ itself, whose trace.py
# would shadow the standard library's: replace it with the roots.
sys.path[:] = [SRC, ROOT] + [
    path for path in sys.path
    if os.path.abspath(path or ".") != os.path.join(ROOT, "bench")
]

from bench import inputs, spec  # noqa: E402

WORKLOAD_NAMES = [workload.name for workload in spec.WORKLOADS]
BOUNDS = {metric.name: metric.bound for metric in spec.END_TO_END}
UNITS = {metric.name: metric.unit for metric in spec.END_TO_END + spec.PER_LAYER}


def run_once(
    workload: str, seed: int, scale: float, seconds: float, trace: bool,
    workdir: str,
) -> Dict[str, Any]:
    """Generate, run the child, merge the two halves into one record."""
    rundir = os.path.join(workdir, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        manifest = inputs.generate(workload, seed, scale, rundir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [ROOT, SRC] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        child = subprocess.run(
            [sys.executable, "-m", "bench.child",
             os.path.join(rundir, "manifest.json"),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            raise RuntimeError(
                f"{workload} child exited {child.returncode} without a record"
            )
        record: Dict[str, Any] = json.loads(lines[-1])
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    record["seed"] = seed
    record["sha256"] = manifest["sha256"]
    record["setup_generate_s"] = manifest["generate_s"]
    if "end_to_end" in record:
        record["end_to_end"]["setup_s"] = (
            manifest["generate_s"] + record["setup_child_s"]
        )
    if "per_layer" in record:
        record["per_layer"].update(manifest["generate_timings"])
    return record


def _metrics_json(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in values.items()
    }


def environment(workdir: str) -> Dict[str, Any]:
    """Where the numbers came from — recorded, never extrapolated."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workdir_fs": _filesystem_of(workdir),
        "git_commit": commit,
    }


def _filesystem_of(path: str) -> str:
    """Type of the filesystem holding ``path`` (WAL fsync cost depends
    on it), from the longest matching mount point."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


# -- driver form ---------------------------------------------------------------

def run_driver(args: argparse.Namespace) -> int:
    record = run_once(
        args.workload, args.seed, args.scale, args.seconds, bool(args.trace),
        args.workdir,
    )
    if not record["correct"]:
        print(f"bench: {args.workload} failed its correctness gate: "
              f"{record['error']}", file=sys.stderr)
        return 1
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": _metrics_json(record[section]),
    }))
    return 0


# -- suite form ------------------------------------------------------------------

def run_suite(args: argparse.Namespace) -> int:
    os.makedirs(args.workdir, exist_ok=True)
    env = environment(args.workdir)
    result: Dict[str, Any] = {
        "environment": env,
        "seed": args.seed, "scale": args.scale, "repeats": args.repeats,
        "seconds": args.seconds,
        "config": spec.CONFIG, "sizes": spec.sizes(args.scale),
        "workloads": {},
    }
    print(f"bench: seed {args.seed}, scale {args.scale}, {args.repeats} "
          f"run(s) x {args.seconds:g} s per workload on "
          f"{env['cpu_count']} cores ({env['platform']}, Python "
          f"{env['python']}, workdir on {env['workdir_fs']})")
    healthy = True
    for workload in WORKLOAD_NAMES:
        runs = [
            run_once(workload, args.seed, args.scale, args.seconds, False,
                     args.workdir)
            for _ in range(args.repeats)
        ]
        healthy = healthy and all(run["correct"] for run in runs)
        entry: Dict[str, Any] = {
            "correct": all(run["correct"] for run in runs),
            "errors": [run["error"] for run in runs if run["error"]],
            "events_per_pass": runs[0]["events_per_pass"],
            "slice_samples": [run["slice_samples"] for run in runs],
            "passes": [len(run["passes"]) for run in runs],
            "sha256": runs[0]["sha256"],
            "failed_share": sum(run["failed"] for run in runs)
            / max(1, sum(run["attempted"] for run in runs)),
            "runs": [run.get("end_to_end", {}) for run in runs],
        }
        if entry["correct"]:
            entry["end_to_end"] = _metrics_json({
                name: statistics.median(run["end_to_end"][name] for run in runs)
                for name in BOUNDS
            })
            # The timing metrics as the wall clock read them, uncorrected
            # for the machine's speed (see bench/clock.py).
            entry["raw"] = _metrics_json({
                name: statistics.median(run["raw"][name] for run in runs)
                for name in runs[0]["raw"]
            })
        if args.trace and entry["correct"]:
            traced = run_once(workload, args.seed, args.scale, args.seconds,
                              True, args.workdir)
            healthy = healthy and traced["correct"]
            if traced["correct"]:
                entry["per_layer"] = _metrics_json(traced["per_layer"])
                entry["timeline"] = traced["timeline"]
                entry["trace_file"] = traced["trace_file"]
        result["workloads"][workload] = entry
        _print_workload(workload, entry)
    path = os.path.join(args.workdir, f"result-{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"bench: result written to {path}")
    return 0 if healthy else 1


def _print_workload(workload: str, entry: Dict[str, Any]) -> None:
    gate = "passed" if entry["correct"] else f"FAILED {entry['errors']}"
    print(f"\n{workload}: {entry['events_per_pass']:,} events per pass, "
          f"passes per run {entry['passes']}, gate {gate}, "
          f"failed_share {entry['failed_share']:g}")
    for name, metric in entry.get("end_to_end", {}).items():
        note = ""
        if name in entry["raw"]:
            note += f"  (wall clock, uncorrected: {entry['raw'][name]['value']:,.3f})"
        if name.startswith("slice_"):
            note += f"  ({min(entry['slice_samples']):,}+ slice samples per run)"
        print(f"  {name:<14} {metric['value']:>14,.3f} {metric['unit']}{note}")
    timeline = entry.get("timeline")
    if timeline:
        wall = sum(timeline.values())
        shares = sorted(timeline.items(), key=lambda item: -item[1])
        print(f"  traced pass {wall:.3f} s = " + ", ".join(
            f"{layer} {seconds / wall:.1%}" for layer, seconds in shares
            if seconds >= 0.005 * wall
        ))
        layers = entry["per_layer"]
        print(f"  trace.overhead_ratio {layers['trace.overhead_ratio']['value']:.3f}"
              f"  (spans in {entry['trace_file']})")


# -- comparison --------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both medians, the relative
    difference (positive = B worse) and the bound (``bench/spec.py``,
    which ``BENCHMARK.json`` is held identical to)."""
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    outside = 0
    print(f"{'workload':<14} {'metric':<13} {'A':>14} {'B':>14} "
          f"{'B worse by':>11} {'bound':>6}")
    for workload in WORKLOAD_NAMES:
        for metric in spec.END_TO_END:
            name = metric.name
            try:
                before = a[workload]["end_to_end"][name]["value"]
                after = b[workload]["end_to_end"][name]["value"]
            except KeyError:
                print(f"{workload:<14} {name:<13} missing on one side")
                outside += 1
                continue
            worse = (after - before) / before
            if metric.better == "higher":
                worse = -worse
            verdict = "" if worse <= metric.bound else "  OUTSIDE"
            outside += bool(verdict)
            print(f"{workload:<14} {name:<13} {before:>14,.3f} {after:>14,.3f} "
                  f"{worse:>+10.1%} {metric.bound:>6.0%}{verdict}")
    failed = [
        f"{side} {workload}" for side, result in (("A", a), ("B", b))
        for workload in WORKLOAD_NAMES
        if not result.get(workload, {}).get("correct")
        or result[workload]["failed_share"] > 0
    ]
    for name in failed:
        print(f"failed events or gate: {name}")
    return 1 if outside or failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.run", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="driver form: run this one workload once")
    parser.add_argument("--seed", type=int, default=90210)
    parser.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS,
                        help="measured seconds per run (default %(default)s)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="driver form: 1 = the traced run (per-layer "
                             "metrics); suite form: add one traced run per "
                             "workload")
    parser.add_argument("--scale", type=float, default=spec.DEFAULT_SCALE,
                        help="input size, 1.0 = the full-size inputs "
                             "(default %(default)s)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite form: runs per workload (default 3)")
    parser.add_argument("--workdir", default=".bench_work",
                        help="where inputs, WAL, checkpoints, trace and "
                             "result files go (default %(default)s)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_driver(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
