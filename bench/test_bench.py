"""Smoke test of the benchmark at toy sizes.

    python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads
from spans import Tracer, aggregate

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy(name):
    """The workload at toy sizes, with the same plans and entry points."""
    if name == "configs":
        # H(2,200) is the smallest shape whose LLN check holds on 8 replicas
        return workloads.ConfigsWorkload(name, [
            workloads._simulate(2, 200, 0.15, 8, (300,)),
            workloads._simulate(3, 6, 0.1, 2),
            workloads._simulate(2, 30, 0.1, 1),
        ])
    if name == "tiny":
        return workloads.TinyWorkload(name, [{
            "experiment": "sweep", "d": 2, "n": 3,
            "epsilons": (-0.6, 0.0, 1.0), "k_thresholds": (2, 4, 6),
            "replicas": 200, "master_seed": 101,
        }])
    if name == "sprinkle":
        return workloads.SprinkleWorkload(name, [{
            "experiment": "sprinkle", "d": 2, "n": 60, "epsilons": (0.1,),
            "replicas": 2, "master_seed": 10,
        }])
    return workloads.ExploreWorkload(name, n=40, samples=20)


# tiny needs a few thousand replicas before its rarest tail has hits
SECONDS = {"configs": 0.3, "tiny": 1.5, "sprinkle": 0.3, "explore": 0.3}


def _run(name, trace, seed=0):
    return run.run_benchmark(toy(name), seed, SECONDS[name], trace,
                             time.perf_counter())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_is_correct_and_traced_outputs_agree(name):
    result, record, trace_out = _run(name, trace=True)
    assert result["failed"] == 0 and record["failed_frac"] == 0.0
    assert result["correct"], record["checks"]
    assert {"name": "traced digests", "passed": True,
            "detail": "traced and untraced outputs agree"} in record["checks"]
    assert trace_out["unit_times"]["units"] > 0


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"),
                                            (True, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, section, capsys):
    result, record, trace_out = _run("configs", trace)
    expected = [(m["name"], m["unit"]) for m in BENCHMARK[section]]
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert got == expected
    run.print_run(record, trace_out)
    lines = capsys.readouterr().out.splitlines()
    for name, unit in expected:
        assert any(line.split()[::2] == [name, unit] for line in lines), name


def test_span_never_called_reads_zero_calls():
    result, _record, _trace = _run("tiny", trace=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["exploration.run_calls"] == 0
    assert metrics["exploration.us_per_step"] == 0.0
    assert metrics["sprinkling.exposure_calls"] == 0
    assert metrics["percolation.sample_calls"] > 0

    class Toy:
        def never(self):
            raise AssertionError("never called")

    tracer = Tracer()
    tracer.wrap_method(Toy, "never", "percolation.union")
    tracer.restore()
    assert aggregate(tracer.spans) == {}
    layers = run.layer_metrics(tracer.spans, "cli", 1.0, 0.0)
    assert layers["percolation.union_calls"] == {"value": 0, "unit": "count"}
    assert layers["percolation.union_ms"] == {"value": 0.0, "unit": "ms"}



def test_call_times_scale_with_the_probe():
    summary = workloads.RoundSummary(10, 0, [], [], [1.0, 2.0])
    ref = run.REFERENCE_S
    quiet = run.Rounds([summary], [[1.0, 4.0]], [[(ref, ref), (ref, ref)]])
    # the host at half speed: calls and probes take twice as long
    slow = run.Rounds([summary], [[2.0, 8.0]],
                      [[(2 * ref, 2 * ref), (ref, 3 * ref)]])
    # a round is 1 s plus 4 s of twice the expected work
    assert quiet.units_per_s() == pytest.approx(10 / 3.0)
    assert slow.units_per_s() == pytest.approx(10 / 3.0)
    assert slow.raw_units_per_s() == pytest.approx(1.0)

def test_seed_changes_inputs_and_repeats_exactly():
    first = _run("explore", trace=False, seed=1)[1]["reproducibility"]
    again = _run("explore", trace=False, seed=1)[1]["reproducibility"]
    other = _run("explore", trace=False, seed=2)[1]["reproducibility"]
    assert first["round_digests"][0] == again["round_digests"][0]
    assert first["round_digests"][0] != other["round_digests"][0]
    assert first["environment"]["threads"] == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in run.BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no hammingperc sources" in done.stderr
