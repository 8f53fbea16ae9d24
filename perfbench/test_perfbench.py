"""The benchmark's own tests: every metric is printed, and a bad output fails its op.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import inputs  # noqa: E402


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(trace, kind, tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
         "--state-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = _declared(kind)
    for workload in inputs.WORKLOADS:
        printed = {name.split(".", 1)[1]: metric["unit"]
                   for name, metric in result["metrics"].items()
                   if name.startswith(workload + ".")}
        assert printed == declared
    for name, unit in declared.items():
        assert f" {name} " in done.stdout and f" {unit}" in done.stdout
    assert "failed_ratio" in done.stdout


def test_corrupted_output_counts_the_op_as_failed(tmp_path, monkeypatch):
    original = bench.cli.main
    calls = []

    def corrupting_main(argv):
        code = original(argv)
        if not calls:
            out = Path(argv[argv.index("--out-dir") + 1])
            with open(out / "cumulative.csv", "a", encoding="utf-8") as handle:
                handle.write("1,1,0.5\n")
        calls.append(argv)
        return code

    monkeypatch.setattr(bench.cli, "main", corrupting_main)
    run = bench.run_workload("synthesize-db", seed=1, seconds=0.1, trace=False,
                             size="tiny", state=tmp_path)
    errors = [op["error"] for op in run["ops"]]
    assert errors[0].startswith("output check")
    assert errors[1:] == [None] * (len(errors) - 1)
    # the first op and its replay, whose files no longer match, both fail
    assert not run["replay_identical"]
    assert run["result"]["failed"] == 2
    assert run["result"]["attempted"] == len(errors) + 1
    assert run["result"]["correct"] is False
