"""Self-tests of the benchmark, most at the tiny smoke scale.

    python3 -m pytest perfbench/check_perfbench.py -q

Not named ``test_*.py``: the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import bench, tracing, workloads  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def tiny(name, trace=False, seed=3):
    return bench.run_workload(name, seed, 0.2, trace, scale="tiny")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_workload(name, trace):
    out = tiny(name, trace)
    result, record = out["result"], out["record"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert record["error_rate"] == 0
    assert set(record["host"]) >= {"nproc", "cpu_model", "python", "numpy", "networkx",
                                   "accel_backend", "numba", "git_commit"}


def test_cli_prints_every_metric_with_its_unit():
    # Full scale: the command line has no size knob.  One pass over the
    # sources is the shortest run.
    proc = subprocess.run(
        RUN + ["--workload", "sssp_sync", "--seed", "1", "--seconds", "0.2",
               "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for name, unit in bench.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines)
    assert "error_rate=0" in lines[0]


def test_corrupted_sssp_answer_is_counted(monkeypatch):
    real = workloads.distributed_bellman_ford

    def corrupted(instance, source, **kwargs):
        result = real(instance, source, **kwargs)
        victim = next(v for v in result.distances if v != source)
        result.distances[victim] += 1
        return result

    monkeypatch.setattr(workloads, "distributed_bellman_ford", corrupted)
    out = tiny("sssp_sync")
    assert not out["result"]["correct"]
    assert out["result"]["failed"] == out["result"]["attempted"]
    assert out["record"]["error_rate"] == 1.0


def test_one_corrupted_point_answer_fails_only_its_ops(monkeypatch):
    real = workloads.ServePoints.op

    def corrupted(self, k, tracer):
        value = real(self, k, tracer)
        return value + 1 if self.slot(k) == 5 else value

    monkeypatch.setattr(workloads.ServePoints, "op", corrupted)
    out = tiny("serve_points")
    result = out["result"]
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert out["record"]["error_rate"] == result["failed"] / result["attempted"]


def test_zero_call_wrapper_is_flagged():
    tracer = tracing.Tracer()
    with tracing.wrapped(tracer):
        from repro.graphs.generators import grid_graph

        grid_graph(3, 3).subgraph([(0, 0), (0, 1)])
    assert tracer.calls["Graph.subgraph"] == 1
    assert tracing.missing_wrappers(tracer, ["Graph.subgraph", "CongestNetwork.run"]) == [
        "CongestNetwork.run"
    ]


def test_run_with_a_zero_call_wrapper_fails(monkeypatch):
    monkeypatch.setattr(
        workloads.BuildKtree, "expected_wrappers",
        workloads.BuildKtree.expected_wrappers + ("CongestNetwork.run",),
    )
    with pytest.raises(bench.TraceIncomplete, match="CongestNetwork.run"):
        tiny("build_ktree", trace=True)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_a_run_keeps_the_callers_cpu_affinity():
    before = os.sched_getaffinity(0)
    tiny("serve_points")
    assert os.sched_getaffinity(0) == before


def test_wrappers_are_removed_after_a_traced_run():
    from repro.graphs.graph import Graph

    before = Graph.__dict__["subgraph"]
    tiny("build_grid", trace=True)
    assert Graph.__dict__["subgraph"] is before


_COUNTS_SCRIPT = """
import json, sys
sys.path[:0] = [{root!r}, {src!r}]
from perfbench import bench, workloads
counts = {{}}
for name in sorted(workloads.WORKLOADS):
    metrics = bench.run_workload(name, 5, 0.1, True, scale="tiny")["result"]["metrics"]
    counts[name] = {{k: metrics[k]["value"] for k in bench.EXACT_COUNTS}}
print(json.dumps(counts))
"""


def test_exact_counts_do_not_depend_on_the_hash_seed():
    script = _COUNTS_SCRIPT.format(root=str(ROOT), src=str(ROOT / "src"))
    seen = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=300, check=True, env=env,
        )
        seen.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert seen[0] == seen[1]
    assert any(v for counts in seen[0].values() for v in counts.values())


def test_without_library_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build_ktree", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
