"""Command-line front end: plans, seeded replica runs, CSV/JSON output.

A plan captures everything an experiment needs; running the same plan with
the same master seed reproduces the CSV output byte for byte (timing and
timestamps live only in the JSON record).  Exit codes: 0 ok, 1 acceptance
failure, 2 usage error (including a malformed number on the command line,
in a config file or in HP_THREADS), 3 numeric-domain error.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from hammingperc import __version__, acceptance
from hammingperc.branching import GWSpec, survival_probability, tail_probability
from hammingperc.exploration import ExplorationEngine
from hammingperc.graph import DomainError, HammingGraph
from hammingperc.percolation import PercolationConfig
from hammingperc.rng import stream_rng
from hammingperc.sprinkling import two_round_exposure
from hammingperc.stats import replica_summaries

__all__ = [
    "CSV_HEADER",
    "ExperimentPlan",
    "RunRecord",
    "main",
    "parse_plan",
    "run",
    "serialize_plan",
    "supercritical_regime_check",
]

EXPERIMENTS = ("simulate", "explore", "sprinkle", "gw", "verify", "sweep")
GRAPH_EXPERIMENTS = ("simulate", "explore", "sprinkle", "sweep")
CSV_HEADER = ("experiment", "d", "n", "epsilon", "eta", "seed", "replica",
              "cmax", "c2", "z_k", "z_value")
# most values a lo:hi:step epsilon range may expand to
MAX_EPSILONS = 10_000
# Peak bytes of one replica per item, fitted to tracemalloc peaks of
# sprinkle replicas (simulate needs less) at H(2,1000) and H(3,60), eps 0.1
# and 1.0, rounded up so that no measured peak is underestimated (see
# CHANGES.md).
BYTES_PER_VERTEX = 54
BYTES_PER_LINE = 216
BYTES_PER_EDGE = 58
# An exploration costs per vertex only: the peak of building its engine and
# running one exploration to cap V at eps 5, which discovers nearly all of
# V, measured at H(2,300), H(2,1000) and H(2,2000) and rounded up.
EXPLORE_BYTES_PER_VERTEX = 56
# graph plans whose replica is estimated above this are refused
MAX_REPLICA_BYTES = 4 * 2**30


class UsageError(ValueError):
    """Malformed input: a number that does not parse, or a config file that
    is not in key = value form."""


def _number(cast, text: str, what: str):
    """cast(text), or a UsageError naming ``what`` if text does not parse."""
    try:
        return cast(text)
    except ValueError:
        raise UsageError(
            f"{what} must be {'an integer' if cast is int else 'a number'},"
            f" got {text!r}"
        ) from None


def _int_list(text: str) -> tuple:
    return tuple(_number(int, v, "k") for v in text.split(",") if v.strip())


@dataclass(frozen=True)
class ExperimentPlan:
    """Fully-resolved description of one experiment invocation."""

    experiment: str
    d: int = 2
    n: int = 10
    epsilons: tuple = (0.1,)
    eta: float | None = None  # None: sqrt(eps) * V^(-1/6)
    k_thresholds: tuple = ()
    replicas: int = 1
    master_seed: int = 0
    threads: int = 1
    out_csv: str | None = None
    out_json: str | None = None
    gw_N: int | None = None
    tail_ell: int | None = None

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise DomainError(f"unknown experiment {self.experiment!r}")
        if self.eta is not None and not math.isfinite(self.eta):
            raise DomainError(f"eta must be finite, got {self.eta}")
        if self.replicas < 1:
            raise DomainError(f"need replicas >= 1, got {self.replicas}")
        if self.threads < 1:
            raise DomainError(f"need threads >= 1, got {self.threads}")
        for k in self.k_thresholds:
            if k < 1:
                raise DomainError(f"need k >= 1, got {k}")
        if self.experiment == "gw":
            if not self.gw_N or self.gw_N < 1:
                raise DomainError("gw needs --N >= 1")
            if not self.tail_ell or self.tail_ell < 1:
                raise DomainError("gw needs --tail >= 1")
        if not self.epsilons:
            raise DomainError("need at least one epsilon")
        if self.experiment != "sweep" and len(self.epsilons) != 1:
            raise DomainError(
                f"{self.experiment} takes a single epsilon; "
                "ranges belong to sweep"
            )
        if self.experiment == "explore" and self.d != 2:
            raise DomainError(f"explore runs on d = 2 only, got d = {self.d}")
        if self.experiment in GRAPH_EXPERIMENTS:
            g = HammingGraph(self.d, self.n)
            if g.d > 64 or g.num_vertices > 2**64:
                raise DomainError(f"H({g.d}, {g.n}) has over 2**64 vertices")
            for eps in self.epsilons:
                PercolationConfig(g, epsilon=eps)  # checks [-1, degree - 1]
            need = self.replica_bytes(g)
            if need > MAX_REPLICA_BYTES:
                graph = f"H({self.d}, {self.n})"
                workers = self._workers()
                held = (f"one replica on {graph} needs" if workers == 1 else
                        f"{workers} replicas at once on {graph} need")
                raise DomainError(
                    f"{held} about {need / 2**30:.3g} GiB; the limit is "
                    f"{MAX_REPLICA_BYTES / 2**30:g} GiB"
                )

    def _workers(self) -> int:
        """Replicas held at once: one per worker process for the
        experiments that run a pool, one otherwise."""
        return self.threads if self.experiment in ("simulate", "sweep") else 1

    def replica_bytes(self, g: HammingGraph) -> float:
        """Estimated peak bytes of the replicas this plan holds at once on
        g: one per worker process for simulate and sweep."""
        V = g.num_vertices
        if self.experiment == "explore":
            return EXPLORE_BYTES_PER_VERTEX * V
        edges = (1.0 + max(self.epsilons)) * V / 2
        return self._workers() * (BYTES_PER_VERTEX * V
                                  + BYTES_PER_LINE * g.num_lines()
                                  + BYTES_PER_EDGE * edges)


@dataclass
class RunRecord:
    """One finished run: the echoed plan plus ordered rows and summary."""

    plan: ExperimentPlan
    rows: list
    summary: dict
    warnings: list
    version: str
    timestamp: str
    total_seconds: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "plan": _plan_to_dict(self.plan),
                "rows": [dict(zip(CSV_HEADER, row)) for row in self.rows],
                "summary": self.summary,
                "warnings": self.warnings,
                "version": self.version,
                "timestamp": self.timestamp,
                "total_seconds": self.total_seconds,
            },
            indent=2,
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(CSV_HEADER) + "\n")
        for row in self.rows:
            out.write(",".join(row) + "\n")
        return out.getvalue()


def _fmt(value) -> str:
    """Cell formatting: shortest round-trip decimals, blanks for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _plan_to_dict(plan: ExperimentPlan) -> dict:
    """Set plan values by config key, in table order: floats as their
    shortest round-trip text, lists comma-joined, None and empties left out."""
    out = {}
    for key, (name, read, _help) in PLAN_KEYS.items():
        value = getattr(plan, name)
        if value is None or isinstance(value, (tuple, str)) and not value:
            continue
        floats = read in (float, parse_epsilons)
        if isinstance(value, tuple):
            value = ",".join(repr(float(v)) if floats else str(v)
                             for v in value)
        elif floats:
            value = repr(float(value))
        out[key] = value
    return out


def serialize_plan(plan: ExperimentPlan) -> str:
    """Flat key = value text under a [plan] section."""
    lines = ["[plan]"]
    lines += [f"{key} = {value}" for key, value in _plan_to_dict(plan).items()]
    return "\n".join(lines) + "\n"


def parse_epsilons(text: str) -> tuple:
    """Accept a single value, a comma list, or a start:stop:step range."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"bad epsilon range {text!r}, want lo:hi:step")
        lo, hi, step = (_number(float, v, "epsilon") for v in parts)
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
            raise DomainError(f"bad epsilon range {text!r}")
        span = (hi - lo) / step
        if span > MAX_EPSILONS - 1:
            raise DomainError(
                f"epsilon range {text!r} has more than {MAX_EPSILONS} values"
            )
        count = int(round(span)) + 1
        values = [lo + i * step for i in range(count)]
        return tuple(v for v in values if v <= hi + 1e-12)
    return tuple(_number(float, v, "epsilon") for v in text.split(",")
                 if v.strip())


# config key -> (ExperimentPlan field, reader of its text, flag help); the
# flag of a key is --key with - for _, and plans are written in this order
PLAN_KEYS = {
    "experiment": ("experiment", str, None),
    "d": ("d", int, "word length of H(d, n)"),
    "n": ("n", int, "alphabet size of H(d, n)"),
    "eps": ("epsilons", parse_epsilons,
            "value, comma list, or lo:hi:step range"),
    "replicas": ("replicas", int, None),
    "seed": ("master_seed", int, None),
    "threads": ("threads", int, "worker processes (default: the config"
                                " file, else HP_THREADS, else 1)"),
    "eta": ("eta", float, "explicit sprinkle intensity; default rule is"
                          " sqrt(eps) * V^(-1/6)"),
    "k": ("k_thresholds", _int_list,
          "comma list of component-size thresholds"),
    "out_csv": ("out_csv", str, None),
    "out_json": ("out_json", str, None),
    "N": ("gw_N", int, "offspring trial count"),
    "tail": ("tail_ell", int, "tail threshold to evaluate"),
}
GW_KEYS = ("N", "tail")  # only gw takes these flags


def _plan_from_keys(values: dict) -> ExperimentPlan:
    """Parse and validate a plan from config key -> text."""
    unknown = [key for key in values if key not in PLAN_KEYS]
    if unknown:
        raise UsageError(f"unknown config key {unknown[0]!r}")
    fields = {}
    for key, text in values.items():
        name, read, _help = PLAN_KEYS[key]
        fields[name] = (_number(read, text, key) if read in (int, float)
                        else read(text))
    plan = ExperimentPlan(**fields)
    plan.validate()
    return plan


def _config_keys(text: str) -> dict:
    """Config key -> text of the [plan] section of a config file."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case: N (trials) differs from n
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        first_line = str(exc).splitlines()[0]
        raise UsageError(f"malformed config: {first_line}") from None
    if not parser.has_section("plan"):
        raise DomainError("config needs a [plan] section")
    return dict(parser["plan"])


def parse_plan(text: str) -> ExperimentPlan:
    """Inverse of serialize_plan; also reads hand-written config files."""
    return _plan_from_keys({"experiment": "simulate", **_config_keys(text)})


def resolve_eta(plan: ExperimentPlan, epsilon: float, V: int) -> float:
    if plan.eta is not None:
        return float(plan.eta)
    if epsilon <= 0.0:
        raise DomainError(
            "the default eta rule sqrt(eps) * V^(-1/6) needs epsilon > 0"
        )
    return math.sqrt(epsilon) * V ** (-1.0 / 6.0)


def supercritical_regime_check(plan: ExperimentPlan) -> list[str]:
    """Warnings for epsilons outside the supercritical working range."""
    if plan.experiment in ("gw", "verify"):
        return []
    V = plan.n ** plan.d
    lower = math.log(V) ** (1.0 / 3.0) * V ** (-1.0 / 3.0)
    notes = []
    for eps in plan.epsilons:
        if eps == 0.0:
            notes.append(
                "eps=0 sits inside the critical window; the giant-component"
                " law does not apply"
            )
        elif eps < lower:
            notes.append(
                f"eps={eps:g} is below (log V)^(1/3) V^(-1/3) ~ {lower:.3g};"
                f" outside the supercritical regime"
            )
        elif eps > 0.5:
            notes.append(
                f"eps={eps:g} is above 0.5; outside the moderate"
                f" supercritical regime"
            )
    return notes


def _simulate_task(args: tuple) -> list:
    d, n, eps, seed, streams, ks = args
    cfg = PercolationConfig(HammingGraph(d, n), epsilon=eps, seed=seed)
    return replica_summaries(cfg, streams, ks)


def _run_simulate(plan: ExperimentPlan) -> tuple[list, dict]:
    # each epsilon's streams in `threads` contiguous chunks, one task each
    R, T = plan.replicas, plan.threads
    tasks = [
        (plan.d, plan.n, eps, plan.master_seed,
         range(R * i // T, R * (i + 1) // T), plan.k_thresholds)
        for eps in plan.epsilons
        for i in range(T)
    ]
    if T > 1:
        with ProcessPoolExecutor(max_workers=T) as pool:
            results = list(pool.map(_simulate_task, tasks))
    else:
        results = [_simulate_task(t) for t in tasks]

    rows = []
    cmax_by_eps: dict[float, list] = {}
    for (d, n, eps, seed, _streams, _ks), summaries in zip(tasks, results):
        head = [plan.experiment, _fmt(d), _fmt(n), _fmt(float(eps)), "",
                _fmt(seed)]
        for s in summaries:
            cmax_by_eps.setdefault(eps, []).append(s.cmax)
            base = head + [_fmt(s.seed), _fmt(s.cmax), _fmt(s.c2)]
            if s.z_geq_table:
                rows += [base + [_fmt(k), _fmt(z)] for k, z in s.z_geq_table]
            else:
                rows.append(base + ["", ""])
    summary = {
        "replicas": plan.replicas,
        "median_cmax_by_epsilon": {
            repr(float(eps)): float(np.median(v))
            for eps, v in cmax_by_eps.items()
        },
    }
    return rows, summary


def _run_explore(plan: ExperimentPlan) -> tuple[list, dict]:
    eps = plan.epsilons[0]
    g = HammingGraph(plan.d, plan.n)
    cfg = PercolationConfig(g, epsilon=eps, seed=plan.master_seed)
    if plan.k_thresholds:
        cap = max(plan.k_thresholds)
    else:
        cap = math.ceil(resolve_eta(plan, eps, g.num_vertices)
                        * g.num_vertices)
    engine = ExplorationEngine(cfg)
    rows = []
    reached = 0
    for r in range(plan.replicas):
        res = engine.run((0, 0), cap=cap, rng=stream_rng(plan.master_seed, r))
        reached += res.cluster_size_capped >= cap
        rows.append([
            plan.experiment, _fmt(plan.d), _fmt(plan.n), _fmt(float(eps)),
            "", _fmt(plan.master_seed), _fmt(r),
            _fmt(res.cluster_size_capped), "", _fmt(cap), _fmt(res.T),
        ])
    summary = {
        "cap": cap,
        "reached_cap_fraction": reached / plan.replicas,
    }
    return rows, summary


def _run_sprinkle(plan: ExperimentPlan) -> tuple[list, dict]:
    eps = plan.epsilons[0]
    g = HammingGraph(plan.d, plan.n)
    cfg = PercolationConfig(g, epsilon=eps, seed=plan.master_seed)
    eta = resolve_eta(plan, eps, g.num_vertices)
    threshold = max(1, math.ceil(eta * g.num_vertices))
    rows = []
    merged = 0
    for r in range(plan.replicas):
        rep = two_round_exposure(cfg, eta=eta, stream=r)
        merged += rep.merged_after
        rows.append([
            plan.experiment, _fmt(plan.d), _fmt(plan.n), _fmt(float(eps)),
            _fmt(eta), _fmt(plan.master_seed), _fmt(r),
            _fmt(rep.cmax_after), "", _fmt(threshold), _fmt(rep.z_prime),
        ])
    summary = {
        "eta": eta,
        "large_cluster_threshold": threshold,
        "merged_fraction": merged / plan.replicas,
    }
    return rows, summary


def _run_gw(plan: ExperimentPlan) -> tuple[list, dict]:
    eps = plan.epsilons[0]
    spec = GWSpec(plan.gw_N, (1.0 + eps) / plan.gw_N)
    value = tail_probability(spec, plan.tail_ell)
    zeta = survival_probability(spec)
    print(f"P(total progeny >= {plan.tail_ell}) = {value:.15g}")
    print(f"survival probability = {zeta:.15g}")
    rows = [[
        plan.experiment, "", "", _fmt(float(eps)), "",
        _fmt(plan.master_seed), "0", "", "", _fmt(plan.tail_ell),
        _fmt(value),
    ]]
    return rows, {"tail_probability": value, "survival_probability": zeta}


def _run_verify(plan: ExperimentPlan) -> tuple[list, dict, bool]:
    rows = []
    results = []
    for check in acceptance.ALL_CRITERIA:
        result = check()
        results.append(result)
        print(result.line(), flush=True)
        rows.append([
            plan.experiment, "", "", "", "", _fmt(plan.master_seed),
            _fmt(result.number), "", "", _fmt(result.number),
            _fmt(int(result.passed)),
        ])
    passed = all(r.passed for r in results)
    print(f"{'ALL PASS' if passed else 'FAILURES PRESENT'} "
          f"({sum(r.passed for r in results)}/{len(results)} criteria, "
          f"{sum(r.seconds for r in results):.0f}s)")
    summary = {
        "passed": passed,
        "criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "details": r.details, "seconds": r.seconds}
            for r in results
        ],
    }
    return rows, summary, passed


def run(plan: ExperimentPlan) -> tuple[RunRecord, int]:
    """Execute a validated plan; returns the record and an exit code."""
    plan.validate()
    warnings = supercritical_regime_check(plan)
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
    t0 = time.perf_counter()
    code = 0
    if plan.experiment in ("simulate", "sweep"):
        rows, summary = _run_simulate(plan)
    elif plan.experiment == "explore":
        rows, summary = _run_explore(plan)
    elif plan.experiment == "sprinkle":
        rows, summary = _run_sprinkle(plan)
    elif plan.experiment == "gw":
        rows, summary = _run_gw(plan)
    else:
        rows, summary, ok = _run_verify(plan)
        code = 0 if ok else 1
    record = RunRecord(
        plan=plan,
        rows=rows,
        summary=summary,
        warnings=warnings,
        version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        total_seconds=time.perf_counter() - t0,
    )
    if plan.experiment not in ("gw", "verify"):
        print(f"{plan.experiment}: d={plan.d} n={plan.n} "
              f"eps={','.join(repr(float(e)) for e in plan.epsilons)} "
              f"replicas={plan.replicas} seed={plan.master_seed}")
        for key, value in summary.items():
            print(f"  {key} = {value}")
        print(f"  rows = {len(rows)}, {record.total_seconds:.2f}s")
    if plan.out_csv:
        with open(plan.out_csv, "w", newline="") as fh:
            fh.write(record.to_csv())
    if plan.out_json:
        with open(plan.out_json, "w") as fh:
            fh.write(record.to_json())
    return record, code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamming-perc",
        description="Percolation experiments on Hamming graphs H(d, n).",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        for key, (_field, _read, flag_help) in PLAN_KEYS.items():
            if key != "experiment" and (name == "gw" or key not in GW_KEYS):
                p.add_argument("--" + key.replace("_", "-"), help=flag_help)
        p.add_argument("--config",
                       help="flat key = value plan file; flags win")
    return parser


def _plan_from_args(args: argparse.Namespace) -> ExperimentPlan:
    """Flags over the config file over HP_THREADS over the defaults."""
    values = {}
    if args.config:
        with open(args.config) as fh:
            values = _config_keys(fh.read())
    values.update((key, getattr(args, key)) for key in PLAN_KEYS
                  if getattr(args, key, None) is not None)
    env = os.environ.get("HP_THREADS")
    if env and "threads" not in values:
        values["threads"] = str(_number(int, env, "HP_THREADS"))
    return _plan_from_keys(values)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        plan = _plan_from_args(args)
        _record, code = run(plan)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
