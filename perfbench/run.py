"""Benchmark entry point for the simulate -> estimate -> forecast pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forecast-wide --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Times
are in reference-host seconds (see ``hostprobe``); the summary lines before
the result also give them in wall time. The run works in, and writes its full
record (host environment, every op, every span) to, ``--state-dir``, which is
``.perfbench/`` by default.

``--workload all`` runs every workload, each in a process of its own, and
prints one table of every metric with its unit and op counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import inputs

CHILD_TIMEOUT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                        help="'tiny' only checks that every path runs")
    parser.add_argument("--state-dir", type=Path, default=inputs.STATE,
                        help="where runs work and leave their records")
    return parser.parse_args(argv)


def _print_summary(run: dict) -> None:
    result = run["result"]
    ops = run["ops"]
    print(f"perfbench env {json.dumps(run['env'], sort_keys=True)}")
    print(f"perfbench {run['workload']} seed={run['seed']} trace={int(run['trace'])} "
          f"size={run['size']}: {len(ops)} timed ops + 1 replay, {result['failed']} failed, "
          f"replay {'identical' if run['replay_identical'] else 'DIFFERS'}")
    for op in ops:
        if op["error"] is not None:
            print(f"  op {op['index']} failed: {op['error']}")
    wall = run["wall"] if not run["trace"] else {}
    for name, metric in result["metrics"].items():
        line = f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}"
        if name in wall and name != "peak_rss_mb":
            line += f"  (wall time: {wall[name]:.6g})"
        print(line)
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<28} {ratio:>16.6g} ratio "
          f"({result['failed']}/{result['attempted']} ops)")


def _run_one(args) -> int:
    import bench

    run = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.size, args.state_dir)
    args.state_dir.mkdir(parents=True, exist_ok=True)
    record = args.state_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    _print_summary(run)
    print(json.dumps(run["result"]))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    results = {}
    for workload in inputs.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size,
                   "--state-dir", str(args.state_dir)]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(done.stdout.splitlines()[-1])
    print(f"{'workload':<16} {'metric':<28} {'value':>16} unit")
    for workload, result in results.items():
        metrics = dict(result["metrics"])
        metrics["failed_ratio"] = {"value": result["failed"] / result["attempted"],
                                   "unit": "ratio"}
        for name, metric in metrics.items():
            print(f"{workload:<16} {name:<28} {metric['value']:>16.6g} {metric['unit']}")
        print(f"{workload:<16} {'ops':<28} {result['attempted']:>16d} "
              f"attempted, {result['failed']} failed")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": metric for w, r in results.items()
                    for name, metric in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (inputs.SRC / "oprisk_dynamics" / "cli.py").is_file():
        print(f"perfbench: no program source under {inputs.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(inputs.SRC))
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
