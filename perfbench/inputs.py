"""Workload sizes and input generation for the benchmark.

Every input an op sees is made here from the run seed: a run config derived
from the bundled reference scenario (``data/reference.json``) and, for the
workloads that read one, a loss database simulated from the reference
parameters. The benchmark runs this file as a script, in a process of its
own, so that set-up's memory peak stays out of the timed phase:

    python3 perfbench/inputs.py --workload forecast-wide --seed 1 --size full --out DIR

The script makes the inputs ``setup_reps`` times, after its imports, and
prints one JSON line: per repetition, the seconds it took and the parts of
the host probe around it.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Where runs work and leave their records, unless told otherwise.
STATE = ROOT / ".perfbench"

WORKLOADS = ("forecast-wide", "synthesize-db", "estimate-sweep")

# "full" is what the benchmark measures; "tiny" only exercises every path
# quickly for the benchmark's own tests. The sweep database keeps 100k steps
# even when tiny, because the theta accuracy check at f = 1.0 needs them.
# Set-up runs in ``setup_procs`` processes one after another, ``setup_reps``
# times in each, and reports the median of all repetitions: the same work
# can take a third longer in one process than in the next, so a median over
# one process is not enough. The sweep's database costs seconds to simulate,
# so it is made fewer times; synthesize-db's set-up only writes a config, so it
# is made more often.
SIZES = {
    "full": {
        "forecast-wide": {"db_steps": 20_000, "steps": 2_000, "trajectories": 1_000,
                          "setup_procs": 3, "setup_reps": 3},
        "synthesize-db": {"steps": 20_000, "setup_procs": 5, "setup_reps": 5},
        "estimate-sweep": {"db_steps": 100_000, "setup_procs": 3, "setup_reps": 2},
    },
    "tiny": {
        "forecast-wide": {"db_steps": 20_000, "steps": 100, "trajectories": 20,
                          "setup_procs": 1, "setup_reps": 1},
        "synthesize-db": {"steps": 500, "setup_procs": 1, "setup_reps": 1},
        "estimate-sweep": {"db_steps": 100_000, "setup_procs": 1, "setup_reps": 1},
    },
}


def derived_seed(label: str, seed: int) -> int:
    """A simulation seed for ``label``, fixed by the run seed."""
    return random.Random(f"{label}:{seed}").randrange(2**31)


def make_inputs(workload: str, seed: int, size: str, out: Path) -> None:
    """Write ``config.json`` and, where the workload reads one, ``db.csv``."""
    from oprisk_dynamics import io
    from oprisk_dynamics.model import NoiseSpec
    from oprisk_dynamics.simulate import simulate

    spec = SIZES[size][workload]
    with open(io.reference_config_path(), encoding="utf-8") as handle:
        doc = json.load(handle)
    if "steps" in spec:
        doc["simulation"]["n_steps"] = spec["steps"]
    if "trajectories" in spec:
        doc["simulation"]["m_trajectories"] = spec["trajectories"]
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.json"
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
    if "db_steps" in spec:
        p = io.load_config(config_path).parameters
        noise = NoiseSpec(rates=p.lam, seed=derived_seed("db", seed))
        trajectory = simulate(p, None, spec["db_steps"], noise)
        io.write_loss_database(out / "db.csv", trajectory.losses)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import hostprobe
    import oprisk_dynamics.simulate  # noqa: F401 - imports are not set-up work

    # Each probe point is the median of three probes, which damps the probe's
    # own jitter; consecutive repetitions share the point between them.
    def probe_point():
        return [statistics.median(part) for part in
                zip(*(hostprobe.probe_parts() for _ in range(3)))]

    reps = []
    before = probe_point()
    for _ in range(SIZES[args.size][args.workload]["setup_reps"]):
        shutil.rmtree(args.out, ignore_errors=True)
        start = time.perf_counter()
        make_inputs(args.workload, args.seed, args.size, args.out)
        seconds = time.perf_counter() - start
        after = probe_point()
        reps.append((seconds, [(b + a) / 2 for b, a in zip(before, after)]))
        before = after
    print(json.dumps(reps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
