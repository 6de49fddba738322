#!/usr/bin/env python3
"""Replica-throughput benchmark for hamming-perc.

Run from the repository root:

    python3 bench/run.py --workload configs --seed 0 --seconds 24 --trace 0

One process runs one workload as a single client in a closed loop: rounds
of work go through the entry points users call (``hammingperc.cli.run``
plans, or the ``hammingperc.stats`` estimators) until ``--seconds`` of
timed work are done.  Output checks run between and after the timed
rounds and count toward no timing.  ``--trace 1`` repeats the same rounds
with spans around every layer call and reports per-layer numbers.  The
last line of standard output is one JSON object; the full record and the
trace go to ``bench/out/``.  See ``bench/README.md``.
"""

import time

PROCESS_START = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import REFERENCE_S, Probe  # noqa: E402
from spans import (END, NAME, START, TAG, Tracer, aggregate,  # noqa: E402
                   covered_time, nested_time)
from workloads import WORKLOADS, Check, sha256  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# setup_s is the median over this run and this many fresh set-up processes
SETUP_CHILDREN = 2

END_TO_END = (
    ("units_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
LAYER_METRICS = (
    ("rng.stream_us", "us"),
    ("rng.stream_calls", "count"),
    ("percolation.sample_ms", "ms"),
    ("percolation.sample_calls", "count"),
    ("percolation.decode_ms", "ms"),
    ("percolation.decode_calls", "count"),
    ("percolation.union_ms", "ms"),
    ("percolation.union_calls", "count"),
    ("percolation.components_ms", "ms"),
    ("percolation.components_calls", "count"),
    ("percolation.occupied_edges", "count"),
    ("percolation.ns_per_edge", "ns"),
    ("sprinkling.exposure_ms", "ms"),
    ("sprinkling.exposure_calls", "count"),
    ("sprinkling.self_ms", "ms"),
    ("sprinkling.sprinkled_edges", "count"),
    ("exploration.engine_init_ms", "ms"),
    ("exploration.engine_init_calls", "count"),
    ("exploration.us_per_step", "us"),
    ("exploration.run_calls", "count"),
    ("exploration.steps", "count"),
    ("exploration.reached_cap_frac", "ratio"),
    ("cli.self_frac", "ratio"),
    ("stats.self_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)
# spans that belong to a layer below the entry points
PERCOLATION_SPANS = frozenset({
    "percolation.sample", "percolation.decode", "percolation.unionfind_init",
    "percolation.union", "percolation.component_sizes",
    "percolation.components",
})
LAYER_SPANS = PERCOLATION_SPANS | {
    "rng.stream", "sprinkling.exposure", "exploration.engine_init",
    "exploration.run",
}
EMPTY_SPAN = {"calls": 0, "total": 0.0, "self": 0.0, "count": None}


def load_program():
    """Import hammingperc from this checkout's ``src``, never from elsewhere."""
    package = SRC / "hammingperc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no hammingperc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hammingperc

    if Path(hammingperc.__file__).resolve().parent != package:
        raise SystemExit(f"error: hammingperc was imported from "
                         f"{hammingperc.__file__}, not from {package}")


# -- timed and traced rounds ----------------------------------------------


@dataclass
class Rounds:
    """The rounds of one pass, with the time of every timed call and the
    host-speed probe times taken right before and after it."""

    summaries: list  # one RoundSummary per round
    call_seconds: list  # per round, the time of each timed call
    probe_seconds: list  # per round, per call, the (before, after) probes

    @property
    def busy(self) -> float:
        return sum(map(sum, self.call_seconds))

    @property
    def units(self) -> int:
        return sum(s.units for s in self.summaries)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.summaries)

    def units_per_s(self) -> float:
        """Units of a round over a round's time at the probe's reference
        speed.

        Each call's time is scaled by ``REFERENCE_S`` over the mean of the
        probes around it and divided by the call's work relative to its
        expected work (see ``RoundSummary.work``); a round's time is the
        sum over its calls of each call's median scaled time across rounds.
        """
        scaled = [
            [seconds * REFERENCE_S / ((before + after) / 2) / work
             for seconds, (before, after), work in zip(times, probes,
                                                       summary.work)]
            for times, probes, summary in zip(
                self.call_seconds, self.probe_seconds, self.summaries)]
        round_s = sum(map(statistics.median, zip(*scaled)))
        return self.units / len(self.summaries) / round_s

    def raw_units_per_s(self) -> float:
        """Units over the calls' wall time, unscaled."""
        return self.units / self.busy


def run_rounds(workload, probe, seconds=None, count=None) -> Rounds:
    """Run rounds until ``seconds`` of timed work or ``count`` rounds.

    Only the calls into the program are timed; the probes around them and
    reducing their output are not.
    """
    rounds = Rounds([], [], [])
    clock = time.perf_counter
    while ((rounds.busy < seconds) if count is None
           else (len(rounds.summaries) < count)):
        outputs, seconds_per_call, probes = [], [], []
        for call in workload.calls(len(rounds.summaries)):
            before = probe()
            t0 = clock()
            outputs.append(call())
            seconds_per_call.append(clock() - t0)
            probes.append((before, probe()))
        rounds.call_seconds.append(seconds_per_call)
        rounds.probe_seconds.append(probes)
        rounds.summaries.append(workload.summarize(outputs))
    return rounds


def _graph_arg(first, *_args, **_kwargs):
    return first.graph


def install_tracer(unit_span: str) -> Tracer:
    """Wrap the public functions of every layer the workloads reach."""
    from hammingperc import (cli, exploration, percolation, rng, sprinkling,
                             stats)

    tracer = Tracer(unit_names=(unit_span,))
    tracer.wrap_function(cli, "run", "cli.run")
    tracer.wrap_function(stats, "estimate_cluster_tail",
                         "stats.estimate_cluster_tail")
    tracer.wrap_function(stats, "estimate_chi", "stats.estimate_chi")
    tracer.wrap_function(stats, "replica_summary", "stats.replica")
    tracer.wrap_function(rng, "stream_rng", "rng.stream")
    tracer.wrap_function(percolation, "sample_edges", "percolation.sample",
                         tag=lambda g, *_a, **_k: g,
                         count=lambda occ: occ.total_occupied)
    tracer.wrap_method(percolation.OccupiedEdgeSet, "all_pairs",
                       "percolation.decode", tag=_graph_arg)
    tracer.wrap_method(percolation.UnionFind, "__init__",
                       "percolation.unionfind_init")
    tracer.wrap_method(percolation.UnionFind, "union_pairs",
                       "percolation.union")
    tracer.wrap_method(percolation.UnionFind, "component_sizes",
                       "percolation.component_sizes")
    tracer.wrap_function(percolation, "connected_components",
                         "percolation.components", tag=_graph_arg)
    tracer.wrap_function(
        sprinkling, "two_round_exposure", "sprinkling.exposure",
        tag=_graph_arg,
        count=lambda rep: rep.occupied_after - rep.occupied_before)
    tracer.wrap_method(exploration.ExplorationEngine, "__init__",
                       "exploration.engine_init")
    tracer.wrap_method(exploration.ExplorationEngine, "run", "exploration.run",
                       count=lambda res: (res.T, int(not res.died_out)))
    return tracer


def layer_metrics(spans, entry: str, traced_busy: float,
                  overhead: float) -> dict:
    """Per-layer metrics from the spans of the traced rounds."""
    by_name = aggregate(spans)

    def stat(name):
        return by_name.get(name, EMPTY_SPAN)

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call(name, field, scale):
        return ratio(stat(name)[field], stat(name)["calls"]) * scale

    sample, decode = stat("percolation.sample"), stat("percolation.decode")
    union, comps = stat("percolation.union"), stat("percolation.components")
    # building the union-find and sorting its sizes are components' own work
    comps_own = comps["self"] + nested_time(
        spans, "percolation.components",
        {"percolation.unionfind_init", "percolation.component_sizes"})
    expo, run = stat("sprinkling.exposure"), stat("exploration.run")
    occupied = sample["count"] or 0
    steps, reached = run["count"] or (0, 0)
    outside = 1.0 - ratio(covered_time(spans, LAYER_SPANS), traced_busy)
    values = {
        "rng.stream_us": per_call("rng.stream", "total", 1e6),
        "rng.stream_calls": stat("rng.stream")["calls"],
        "percolation.sample_ms": per_call("percolation.sample", "self", 1e3),
        "percolation.sample_calls": sample["calls"],
        "percolation.decode_ms": per_call("percolation.decode", "self", 1e3),
        "percolation.decode_calls": decode["calls"],
        "percolation.union_ms": per_call("percolation.union", "total", 1e3),
        "percolation.union_calls": union["calls"],
        "percolation.components_ms": 1e3 * ratio(comps_own, comps["calls"]),
        "percolation.components_calls": comps["calls"],
        "percolation.occupied_edges": ratio(occupied, sample["calls"]),
        "percolation.ns_per_edge": 1e9 * ratio(
            covered_time(spans, PERCOLATION_SPANS), occupied),
        "sprinkling.exposure_ms": per_call("sprinkling.exposure", "total", 1e3),
        "sprinkling.exposure_calls": expo["calls"],
        "sprinkling.self_ms": per_call("sprinkling.exposure", "self", 1e3),
        "sprinkling.sprinkled_edges": ratio(expo["count"] or 0, expo["calls"]),
        "exploration.engine_init_ms": per_call("exploration.engine_init",
                                               "total", 1e3),
        "exploration.engine_init_calls": stat("exploration.engine_init")["calls"],
        "exploration.us_per_step": 1e6 * ratio(run["total"], steps),
        "exploration.run_calls": run["calls"],
        "exploration.steps": ratio(steps, run["calls"]),
        "exploration.reached_cap_frac": ratio(reached, run["calls"]),
        "cli.self_frac": outside if entry == "cli" else 0.0,
        "stats.self_frac": outside if entry == "stats" else 0.0,
        "trace.overhead_frac": overhead,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS}


def _shape(graph) -> str:
    return f"H({graph.d},{graph.n})"


def percolation_split(spans) -> dict:
    """Per graph shape, ms per replica in the columns of ROADMAP's layer
    table: sample, pair decode, union-find (building it, the pair list and
    the unions) and sizes."""
    tagged = [s for s in spans
              if s[TAG] is not None and s[NAME] in PERCOLATION_SPANS]
    by_shape = aggregate(tagged, key=lambda s: (_shape(s[TAG]), s[NAME]))
    out = {}
    for shape in sorted({shape for shape, _ in by_shape}):
        step = {name.split(".")[1]: by_shape.get((shape, name), EMPTY_SPAN)
                for name in PERCOLATION_SPANS}
        replicas = step["sample"]["calls"]
        if not replicas:
            continue
        ms = 1e3 / replicas
        out[shape] = {
            "replicas": replicas,
            "occupied_edges": (step["sample"]["count"] or 0) / replicas,
            "sample_ms": ms * step["sample"]["self"],
            "decode_ms": ms * step["decode"]["self"],
            "union_find_ms": ms * (step["unionfind_init"]["total"]
                                   + step["union"]["total"]
                                   + step["components"]["self"]),
            "sizes_ms": ms * step["component_sizes"]["total"],
        }
    return out


def unit_distribution(spans, unit_span: str) -> dict:
    seconds = np.array([s[END] - s[START] for s in spans
                        if s[NAME] == unit_span])
    if not seconds.size:
        return {"units": 0}
    p50, p90, p99 = np.percentile(seconds, [50, 90, 99]) * 1e3
    return {"units": int(seconds.size), "mean_ms": float(seconds.mean()) * 1e3,
            "p50_ms": p50, "p90_ms": p90, "p99_ms": p99,
            "max_ms": float(seconds.max()) * 1e3}


# -- one run ----------------------------------------------------------------


def run_benchmark(workload, seed: int, seconds: float, trace: bool,
                  start: float) -> tuple[dict, dict, dict | None]:
    """One run: set-up, timed rounds, optional traced replay, checks.

    Returns the result line, the run record and the trace (or None).
    """
    load_program()
    try:
        workload.setup(seed)
        setup_raw_s = time.perf_counter() - start
        probe = Probe()
        setup_s = setup_raw_s * probe.scale()
        timed = run_rounds(workload, probe, seconds=seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units, failed = timed.units, timed.failed
        checks, reports = workload.check(timed.summaries)
        trace_out = None
        if trace:
            tracer = install_tracer(workload.unit_span)
            try:
                traced = run_rounds(workload, probe,
                                    count=len(timed.summaries))
            finally:
                tracer.restore()
            units += traced.units
            failed += traced.failed
            same = ([s.digests for s in timed.summaries]
                    == [s.digests for s in traced.summaries])
            checks.append(Check("traced digests", same,
                                "traced and untraced outputs "
                                + ("agree" if same else "DIFFER")))
            overhead = timed.units_per_s() / traced.units_per_s() - 1.0
            metrics = layer_metrics(tracer.spans, workload.entry,
                                    traced.busy, overhead)
            trace_out = {
                "untraced_call_seconds": timed.call_seconds,
                "traced_call_seconds": traced.call_seconds,
                "spans_by_name": aggregate(tracer.spans),
                "percolation_by_shape": percolation_split(tracer.spans),
                "unit_times": unit_distribution(tracer.spans,
                                                workload.unit_span),
                "spans": tracer.spans,
            }
        else:
            values = {"units_per_s": timed.units_per_s(), "setup_s": setup_s,
                      "peak_rss_mb": peak_rss_mb}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        workload.close()

    correct = failed == 0 and all(c.passed for c in checks)
    result = {"correct": correct, "attempted": units, "failed": failed,
              "metrics": metrics}
    round_digests = [s.digests for s in timed.summaries]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(timed.summaries),
        "call_seconds": timed.call_seconds,
        "probe_seconds": timed.probe_seconds,
        "call_work": [s.work for s in timed.summaries],
        "raw_units_per_s": timed.raw_units_per_s(),
        "setup_raw_s": setup_raw_s,
        "failed_frac": failed / units,
        "result": result,
        "checks": [vars(c) for c in checks],
        "reports": reports,
        "reproducibility": {
            "round_digests": round_digests,
            "run_digest": sha256(json.dumps(round_digests).encode()),
            "stream_contract": _stream_contract(workload.name, seed,
                                                round_digests[0]),
            "environment": environment(),
        },
    }
    return result, record, trace_out


def _stream_contract(name: str, seed: int, first_round: list) -> str:
    """Compare round 0 with the digests recorded when the benchmark was
    defined; a difference marks a stream-contract change, not a failure."""
    try:
        reference = json.loads((BENCH / "digests.json").read_text())
        expected = reference[name][str(seed)]
    except (OSError, KeyError, ValueError):
        return "no reference for this workload and seed"
    if expected == first_round:
        return "round 0 matches the reference digests"
    return "round 0 differs from the reference digests: stream-contract change"


def environment() -> dict:
    import scipy
    from hammingperc import calibration

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_version": calibration.CALIBRATION_VERSION,
        "git_commit": _git_commit(),
        "threads": 1,
    }


def _git_commit():
    # the ceiling keeps git from reporting a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _setup_in_child(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def write_trace(trace_out: dict, stem: str) -> None:
    spans = trace_out.pop("spans")
    t0 = spans[0][1] if spans else 0.0
    with gzip.open(OUT / f"{stem}-spans.csv.gz", "wt", compresslevel=1) as fh:
        fh.write("name,start_us,end_us,parent,unit,shape,count\n")
        for name, start, end, parent, unit, tag, _child, count in spans:
            if isinstance(count, tuple):
                count = ";".join(map(str, count))
            fh.write(f"{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},"
                     f"{parent},{unit},{_shape(tag) if tag else ''},"
                     f"{'' if count is None else count}\n")
    (OUT / f"{stem}-trace.json").write_text(json.dumps(trace_out, indent=1))


def print_run(record: dict, trace_out: dict | None) -> None:
    print(f"{record['workload']} seed {record['seed']}: {record['rounds']} "
          f"rounds, {record['result']['attempted']} units, "
          f"failed_frac {record['failed_frac']:.6g}")
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    for check in record["checks"]:
        verdict = "PASS" if check["passed"] else "FAIL"
        print(f"  {verdict} {check['name']}: {check['detail']}")
    for line in record["reports"]:
        print(f"  report: {line}")
    print(f"  {record['reproducibility']['stream_contract']}")
    if trace_out:
        split = trace_out["percolation_by_shape"]
        if split:
            print("  percolation per replica (ms): shape, sample, decode, "
                  "union-find, sizes, occupied edges")
        for shape, row in split.items():
            print(f"    {shape} {row['sample_ms']:.2f} {row['decode_ms']:.2f} "
                  f"{row['union_find_ms']:.2f} {row['sizes_ms']:.2f} "
                  f"{row['occupied_edges']:.0f}")
        units = trace_out["unit_times"]
        if units["units"]:
            print(f"  unit ms: p50 {units['p50_ms']:.3f} p90 "
                  f"{units['p90_ms']:.3f} p99 {units['p99_ms']:.3f} "
                  f"max {units['max_ms']:.3f}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 gives the frozen verify master seeds")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        load_program()
        try:
            workload.setup(args.seed)
            setup_raw_s = time.perf_counter() - PROCESS_START
            print(json.dumps({"setup_s": setup_raw_s * Probe().scale()}))
        finally:
            workload.close()
        return 0

    result, record, trace_out = run_benchmark(
        workload, args.seed, args.seconds, bool(args.trace), PROCESS_START)
    if not args.trace:
        samples = [result["metrics"]["setup_s"]["value"]]
        samples += [_setup_in_child(args) for _ in range(SETUP_CHILDREN)]
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        record["setup_samples_s"] = samples
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if trace_out:
        write_trace(trace_out, stem)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print_run(record, trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
