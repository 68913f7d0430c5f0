"""Self-test of the benchmark at k <= 5, so the harness cannot rot unnoticed.

    python3 -m pytest perfbench

It stays out of the package's own test run (``testpaths`` names ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Failed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert detail["workload"] == workload and detail["seed"] == 1 and detail["failed_ratio"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_harness_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "chi-k5", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _setup(name: str):
    sys.path.insert(0, str(run.SRC))
    tracer = run.NullTracer(run.Timeline())
    wl = WORKLOADS[name](0, True, "")
    wl.setup(run.import_library(), tracer)
    return wl, tracer


def test_a_wrong_clique_number_fails_the_op():
    wl, tr = _setup("hereditary-k5")
    i = max(wl.ops(), key=lambda j: len(wl.samples[j]))
    vertices, omega, clique, n, coloring, verdict = wl.run(tr, i)
    assert wl.check(i, (vertices, omega, clique, n, coloring, verdict)) == "ok"
    with pytest.raises(Failed, match="omega"):
        wl.check(i, (vertices, omega - 1, clique[:-1], n, coloring, verdict))


def test_a_wrong_chromatic_number_fails_and_a_budget_stop_is_undecided():
    wl, tr = _setup("chi-k5")
    assert wl.check(0, wl.run(tr, 0)) == "ok"
    with pytest.raises(Failed, match="chi"):
        wl.check(0, wl.run(tr, 0) + 1)
    assert wl.check("full", wl.run(tr, "full")) == "undecided"


def test_timeline_scales_between_calibrations_and_skips_them():
    tl = run.Timeline.__new__(run.Timeline)
    tl.starts, tl.ends = [0.0, 10.0, 20.0], [1.0, 11.0, 21.0]
    tl.scales = {"op": [1.0, 3.0, 1.0], "setup": [1.0, 1.0, 1.0]}
    assert tl.scaled(1.0, 10.0) == 18.0
    assert tl.scaled(5.0, 15.0) == 5.0 * 2 + 4.0 * 2
    assert tl.scaled(0.0, 21.0) == 36.0
    assert tl.scaled(5.0, 15.0, "setup") == 9.0
    assert tl.scaled(5.0, 15.0, None) == 9.0


class _Broken:
    """Two ops: op 0 checks out, op 1's check itself crashes."""

    def ops(self):
        return [0, 1]

    def run(self, tr, op):
        return [op]

    def check(self, op, outcome):
        return "ok" if outcome[op] == 0 else outcome[op + 1]


def test_a_check_that_crashes_fails_its_op_and_the_run_goes_on():
    m = run.measure(_Broken(), run.NullTracer(run.Timeline()), 0.0)
    assert m.ops == 2 and len(m.passes) == 1
    assert len(m.failures) == 1 and "op 1" in m.failures[0] and "IndexError" in m.failures[0]
