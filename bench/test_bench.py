"""Quick test of the benchmark itself on tiny inputs.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import hpmin.solver  # noqa: E402
import workloads  # noqa: E402
from hpmin.energy import BarrierError  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_PLAPLACE = workloads.Workload("tiny_plaplace", "plaplace", (1,), max_iters=200)
TINY_HYPER = workloads.Workload("tiny_hyper", "hyper", (0,), max_iters=3000, p=1)
TINY_FDGRAD = workloads.Workload("tiny_fdgrad", "plaplace", (1,), max_iters=200,
                                 gradient_mode="central_diff")


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def last_record(capsys) -> dict:
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(record["attempted"], int) and record["attempted"] >= 1
    assert isinstance(record["failed"], int)
    return record


@pytest.mark.parametrize("workload", [TINY_PLAPLACE, TINY_HYPER, TINY_FDGRAD],
                         ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    run.run_one(workload, seed=1, seconds=0.2, trace=trace)
    record = last_record(capsys)
    assert record["correct"] and record["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert record["metrics"] == {
        m["name"]: {"value": record["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in record["metrics"].values())


def test_traced_run_restores_wrapped_names(capsys):
    originals = {name: getattr(hpmin.solver, name)
                 for name in ("greedy_coloring", "hessian_fd", "steihaug_cg")}
    run.run_one(TINY_HYPER, seed=0, seconds=0.2, trace=1)
    metrics = last_record(capsys)["metrics"]
    assert all(getattr(hpmin.solver, name) is fn for name, fn in originals.items())
    assert metrics["fd.hessian_calls"]["value"] == metrics["solver.accepted"]["value"]
    assert metrics["solver.cg_calls"]["value"] == metrics["solver.iterations"]["value"]


def test_unconverged_solve_counts_as_failed(capsys):
    stalled = workloads.Workload("stalled", "plaplace", (1, 2), max_iters=1)
    run.run_one(stalled, seed=0, seconds=0.2, trace=1)
    record = last_record(capsys)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] == 4
    assert record["metrics"]["fail_rate"]["value"] == 1.0


def test_raising_solve_counts_as_failed(capsys, monkeypatch):
    def barrier(problem, opts):
        raise BarrierError("energy not finite at a finite-difference probe")

    monkeypatch.setattr(hpmin.solver, "minimize", barrier)
    run.run_one(TINY_PLAPLACE, seed=0, seconds=0.2, trace=0)
    record = last_record(capsys)
    assert not record["correct"] and record["failed"] == record["attempted"]


def test_every_benchmark_level_has_a_reference_energy():
    for w in workloads.WORKLOADS.values():
        table = (workloads.PLAPLACE_ENERGIES if w.problem == "plaplace"
                 else workloads.HYPER_ENERGIES)
        assert all((w.p, level) in table for level in w.levels), w.name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "hyper_p2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def test_traced_counts_repeat_exactly(capsys):
    counts = []
    for _ in range(2):
        run.run_one(TINY_HYPER, seed=1, seconds=0.2, trace=1)
        metrics = last_record(capsys)["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]
