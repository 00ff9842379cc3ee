"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest benchmarks -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_FUNCTIONS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIME_LIMIT_S = 240


def _bench(workload, trace, seed=3):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=TIME_LIMIT_S)
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < TIME_LIMIT_S
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_quick_run_prints_every_metric(workload, trace):
    lines = _bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in listed:
        assert any(line.startswith(f"{workload} {m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith(f"{workload} failed_ratio = 0 ") for line in lines)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    metric_map = json.loads((HERE / "metric_map.json").read_text())
    assert set(metric_map) == {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for targets in metric_map.values():
        for target in targets["moves"]:
            assert target["metric"] in e2e
            assert set(target["workloads"]) <= set(run.WORKLOAD_NAMES)


def _quick(cls, tmp_path, seed=3):
    return cls(seed, workloads.QUICK, tmp_path)


def test_desk_check_rejects_perturbed_phase(tmp_path):
    wl = _quick(workloads.DeskEc, tmp_path)
    outputs = wl.run()
    assert wl.check(outputs) == [None] * 3
    rng = np.random.default_rng(0)
    phase, trace = outputs[1]
    outputs[1] = (phase + rng.normal(0.0, 0.3, phase.shape), trace)
    errors = wl.check(outputs)
    assert errors[0] is None and errors[2] is None and "SNR" in errors[1]


def test_gla_check_rejects_increasing_trace(tmp_path):
    wl = _quick(workloads.GlaSmall, tmp_path)
    outputs = wl.run()
    assert wl.check(outputs) == [None] * len(outputs)
    outputs[0].records[-1].loss = outputs[0].records[0].loss * 2
    assert wl.check(outputs)[0] == "inconsistency trace increased"


def test_compare_check_rejects_flipped_csv_byte(tmp_path):
    wl = _quick(workloads.CompareCorpus, tmp_path)
    wl.reference()
    [(code, data)] = wl.run()
    assert wl.check([(code, data)]) == [None]
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x01
    assert wl.check([(code, bytes(flipped))]) == [
        "CSV differs from the single-thread run"]


def test_analyze_check_rejects_inconsistent_report(tmp_path):
    wl = _quick(workloads.AnalyzeLong, tmp_path)
    outputs = wl.run()
    assert wl.check(outputs) == [None]
    report = outputs[0][1]
    data = json.loads(report.read_text())
    data["results"]["consistency_measure"] = 1e-3
    report.write_text(json.dumps(data))
    assert "not below 1e-7" in wl.check(outputs)[0]


def _attributes():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "specconsist" or name.startswith("specconsist.")
            for attr, value in vars(module).items()}


def test_traced_run_restores_every_wrapped_function(capsys):
    before = _attributes()
    wrapped = {(f"specconsist.{layer}", name)
               for layer, names in LAYER_FUNCTIONS.items() for name in names}
    assert wrapped <= set(before)
    start = time.perf_counter()
    assert run.main(["--workload", "compare_corpus", "--seed", "3", "--seconds",
                     "1", "--trace", "1", "--quick"]) == 0
    assert time.perf_counter() - start < TIME_LIMIT_S
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["metrics"]["solvers.self_share"]["value"] > 0
    after = _attributes()
    assert all(after[key] is value for key, value in before.items())


def test_exact_counts_repeat_across_traced_runs():
    names = ("consistency.fft_points_per_eval", "consistency.peak_alloc_mb",
             "metrics.alignments_evaluated")
    runs = [json.loads(_bench("compare_corpus", 1)[-1])["metrics"] for _ in range(2)]
    for name in names:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    assert runs[0]["metrics.alignments_evaluated"]["value"] > 0
