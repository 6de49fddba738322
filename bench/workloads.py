"""The benchmark's workloads: what one round runs and how it is checked.

A workload sets itself up for a seed (importing hammingperc and running one
untimed warm-up unit), hands out the calls of round r, reduces their
outputs to a RoundSummary between rounds, and runs its reference checks
once the rounds are done.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
from dataclasses import dataclass, replace

import numpy as np

# Round r of a plan workload runs at master seed + r * ROUND_STRIDE, so the
# rounds of one run draw distinct replicas, and round 0 at --seed 0 uses the
# frozen master seed of the verify criterion the workload is shaped after.
ROUND_STRIDE = 1_000_000


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class RoundSummary:
    """What one round produced, reduced right after it ran."""

    units: int
    failed: int  # units whose per-unit checks failed
    digests: list  # sha256 of each output, in plan order
    data: list  # per-plan values for the reference checks
    work: list  # per timed call, its work over the call's expected work


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


class PlanWorkload:
    """Rounds of ``hammingperc.cli.run`` plans; the unit is one replica."""

    entry = "cli"
    unit_span = "stats.replica"

    def __init__(self, name: str, plans: list):
        self.name = name
        self._plan_args = plans  # ExperimentPlan fields at --seed 0

    def setup(self, seed: int) -> None:
        from hammingperc import cli

        self.cli = cli
        self.plans = [
            cli.ExperimentPlan(**dict(args,
                                      master_seed=args["master_seed"] + seed))
            for args in self._plan_args
        ]
        first = self.plans[0]
        self._run(replace(first, epsilons=first.epsilons[:1], replicas=1))

    def close(self) -> None:
        pass

    def _run(self, plan):
        # the CLI prints a summary and regime warnings on every call
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.cli.run(plan)

    def calls(self, r: int) -> list:
        return [
            functools.partial(self._run, replace(
                plan, master_seed=plan.master_seed + r * ROUND_STRIDE))
            for plan in self.plans
        ]

    def summarize(self, outputs: list) -> RoundSummary:
        units = failed = 0
        digests, data = [], []
        for plan, (record, code) in zip(self.plans, outputs):
            digests.append(sha256(record.to_csv().encode()))
            values = _unit_values(record.rows)
            V = plan.n ** plan.d
            expected = plan.replicas * len(plan.epsilons)
            good = (sum(_unit_ok(u, V) for u in values)
                    if code == 0 and len(values) == expected else 0)
            units += expected
            failed += expected - good
            data.append({
                "eps": np.array([u[0] for u in values]),
                "cmax": np.array([u[1] for u in values], dtype=np.int64),
                "z": np.array([[z for _, z in u[3]] for u in values],
                              dtype=np.int64),
                "summary": record.summary,
            })
        return RoundSummary(units, failed, digests, data,
                            [1.0] * len(self.plans))

    def _pooled(self, summaries, index: int) -> dict:
        parts = [s.data[index] for s in summaries]
        return {key: np.concatenate([p[key] for p in parts])
                for key in ("eps", "cmax", "z")}

    def check(self, summaries) -> tuple[list, list]:
        return [], []


def _unit_values(rows) -> list:
    """Per replica: [eps, cmax, c2, [(k, z), ...]] from CLI rows."""
    units: dict = {}
    for row in rows:
        key = (row[3], row[6])  # epsilon, replica
        unit = units.get(key)
        if unit is None:
            unit = units[key] = [float(row[3]), int(row[7]),
                                 int(row[8] or 0), []]
        if row[10]:
            unit[3].append((int(row[9]), int(row[10])))
    return list(units.values())


def _unit_ok(unit, V: int) -> bool:
    """cmax >= c2, cmax <= V, Z <= V and Z non-increasing in k."""
    _eps, cmax, c2, table = unit
    ks = [k for k, _ in table]
    zs = [z for _, z in table]
    return (0 <= c2 <= cmax <= V
            and all(0 <= z <= V for z in zs)
            and all(a < b for a, b in zip(ks, ks[1:]))
            and all(a >= b for a, b in zip(zs, zs[1:])))


class ConfigsWorkload(PlanWorkload):
    """simulate plans at three shapes; the first one carries the LLN check."""

    def check(self, summaries):
        from hammingperc import calibration
        from hammingperc.branching import GWSpec, survival_probability

        plan = self.plans[0]
        V = plan.n ** plan.d
        degree = plan.d * (plan.n - 1)
        eps = plan.epsilons[0]
        zeta = survival_probability(GWSpec(degree, (1.0 + eps) / degree))
        fractions = self._pooled(summaries, 0)["cmax"] / V
        median = float(np.median(fractions))
        band = calibration.GIANT_MEDIAN_BAND
        gap = abs(median / zeta - 1.0)
        return [Check(
            f"giant H({plan.d},{plan.n})", gap <= band,
            f"median cmax/V {median:.4f} over {fractions.size} replicas vs "
            f"survival {zeta:.4f}: relative gap {gap:.4f} (band {band})",
        )], []


class TinyWorkload(PlanWorkload):
    """The sweep plan on H(2,3), checked against exhaustive enumeration."""

    def check(self, summaries):
        from hammingperc.bruteforce import exact_expectation
        from hammingperc.graph import HammingGraph

        plan = self.plans[0]
        g = HammingGraph(plan.d, plan.n)
        V = g.num_vertices
        pooled = self._pooled(summaries, 0)
        worst = 0.0
        for eps in plan.epsilons:
            p = (1.0 + eps) / g.degree
            rows = pooled["eps"] == eps
            pairs = [(pooled["cmax"][rows], exact_expectation(g, p, "cmax"))]
            pairs += [
                (pooled["z"][rows, j] / V,
                 exact_expectation(g, p, "z_geq", k=k) / V)
                for j, k in enumerate(plan.k_thresholds)
            ]
            for samples, exact in pairs:
                worst = max(worst, _std_errors(samples, exact))
        return [Check(
            "exact H(2,3)", worst <= 4.0,
            f"worst |mean - exact| {worst:.2f} std errors (limit 4) over "
            f"{len(plan.epsilons)} probabilities x "
            f"{1 + len(plan.k_thresholds)} quantities, "
            f"{pooled['cmax'].size} replicas",
        )], []


def _std_errors(samples: np.ndarray, exact: float) -> float:
    mean = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    if se == 0.0:
        return 0.0 if mean == exact else math.inf
    return abs(mean - exact) / se


class SprinkleWorkload(PlanWorkload):
    """sprinkle plans; unit = one two-round exposure."""

    unit_span = "sprinkling.exposure"

    def check(self, summaries):
        from hammingperc import calibration

        plan = self.plans[0]
        merged = sum(
            s.data[0]["summary"]["merged_fraction"] * plan.replicas
            for s in summaries
        )
        runs = plan.replicas * len(summaries)
        return [], [
            f"merged fraction {merged / runs:.4f} over {runs} runs "
            f"(criterion 7 needs >= {calibration.SPRINKLE_MERGE_FRACTION})"
        ]


class ExploreWorkload:
    """Cluster-tail explorations beside subcritical chi explorations.

    Both estimators run ``samples`` explorations per round on fresh
    streams; the unit is one exploration.
    """

    entry = "stats"
    unit_span = "exploration.run"
    tail_eps, chi_eps = 0.15, -0.2
    tail_seed, chi_seed = 8, 6  # frozen seeds of criteria 6 and 9
    # mean steps of one tail exploration at H(2,300), over seeds 1 and 2
    tail_steps = 1300.0

    def __init__(self, name: str = "explore", n: int = 300,
                 samples: int = 25):
        self.name = name
        self.n = n
        self.samples = samples

    def setup(self, seed: int) -> None:
        from hammingperc import exploration, stats
        from hammingperc.graph import HammingGraph
        from hammingperc.percolation import PercolationConfig

        self.stats = stats
        g = self.graph = HammingGraph(2, self.n)
        V = g.num_vertices
        self.tail_cfg = PercolationConfig(g, epsilon=self.tail_eps,
                                          seed=self.tail_seed + seed)
        self.chi_cfg = PercolationConfig(g, epsilon=self.chi_eps,
                                         seed=self.chi_seed + seed)
        self.cap = math.ceil(math.sqrt(self.tail_eps) * V ** (-1.0 / 6.0) * V)

        # the estimators return only their estimate; keep each run's size
        # and step count so the outputs can be checked afterwards
        self.runs = runs = []

        class RecordingEngine(exploration.ExplorationEngine):
            def run(self, *args, **kwargs):
                result = super().run(*args, **kwargs)
                runs.append((result.cluster_size_capped, result.T))
                return result

        self._engine_cls = stats.ExplorationEngine
        stats.ExplorationEngine = RecordingEngine
        stats.estimate_cluster_tail(self.tail_cfg, k=self.cap, samples=1)
        runs.clear()

    def close(self) -> None:
        if hasattr(self, "_engine_cls"):
            self.stats.ExplorationEngine = self._engine_cls

    def calls(self, r: int) -> list:
        base = r * self.samples
        return [
            functools.partial(self.stats.estimate_cluster_tail, self.tail_cfg,
                              k=self.cap, samples=self.samples,
                              stream_base=base),
            functools.partial(self.stats.estimate_chi, self.chi_cfg,
                              samples=self.samples, stream_base=base),
        ]

    def summarize(self, outputs) -> RoundSummary:
        tail, chi = outputs
        B = self.samples
        runs = np.array(self.runs, dtype=np.int64).reshape(-1, 2)
        self.runs.clear()
        if len(runs) != 2 * B:
            return RoundSummary(2 * B, 2 * B, [], [], [1.0, 1.0])
        sizes, steps = runs[:, 0], runs[:, 1]
        ok = (steps >= 1) & (sizes >= steps) & (sizes <= self.graph.num_vertices)
        ok[B:] &= sizes[B:] == steps[B:]  # uncapped runs explore everything
        hits = int((sizes[:B] >= self.cap).sum())
        if tail.mean != hits / B:
            ok[:B] = False
        if not math.isclose(chi.mean, float(sizes[B:].mean()), rel_tol=1e-12):
            ok[B:] = False
        return RoundSummary(
            2 * B, int((~ok).sum()),
            [sha256(sizes[:B].tobytes()), sha256(sizes[B:].tobytes())],
            [{"hits": hits, "chi_sum": int(sizes[B:].sum())}],
            # a tail call's time follows the steps it explored: a third of
            # the mean from round to round, 4% over a 24-second run, as the
            # count of runs that reach the cap varies; chi calls barely vary
            [float(steps[:B].sum()) / (self.tail_steps * B), 1.0],
        )

    def check(self, summaries):
        from hammingperc.branching import GWSpec, tail_probability

        n_runs = self.samples * len(summaries)
        hits = sum(s.data[0]["hits"] for s in summaries if s.data)
        phat = hits / n_runs
        se = math.sqrt(phat * (1.0 - phat) / n_runs)
        bound = tail_probability(
            GWSpec(self.graph.degree, self.tail_cfg.p), self.cap)
        excess = (phat - bound) / se if se else (
            0.0 if phat <= bound else math.inf)
        chi = sum(s.data[0]["chi_sum"] for s in summaries if s.data) / n_runs
        return [Check(
            f"tail H(2,{self.n}) cap {self.cap}", excess <= 3.0,
            f"estimate {phat:.4f} over {n_runs} runs vs GW bound "
            f"{bound:.4f}: excess {excess:+.2f} std errors (limit +3)",
        )], [
            f"chi {chi:.3f} over {n_runs} runs at eps {self.chi_eps} "
            f"(criterion 9 reference {1.0 / abs(self.chi_eps):.1f})"
        ]


def _simulate(d, n, eps, replicas, ks=()):
    return {"experiment": "simulate", "d": d, "n": n, "epsilons": (eps,),
            "k_thresholds": ks, "replicas": replicas, "master_seed": 3}


WORKLOADS = {
    # ~2.7 s rounds: H(2,1000) takes about half of the time, the others a
    # quarter each
    "configs": lambda: ConfigsWorkload("configs", [
        _simulate(2, 300, 0.15, 8, (2009,)),
        _simulate(3, 60, 0.1, 1),
        _simulate(2, 1000, 0.1, 1),
    ]),
    "tiny": lambda: TinyWorkload("tiny", [{
        "experiment": "sweep", "d": 2, "n": 3, "epsilons": (-0.6, 0.0, 1.0),
        "k_thresholds": (2, 4, 6), "replicas": 100, "master_seed": 101,
    }]),
    "sprinkle": lambda: SprinkleWorkload("sprinkle", [{
        "experiment": "sprinkle", "d": 2, "n": 500, "epsilons": (0.1,),
        "replicas": 1, "master_seed": 10,
    }]),
    "explore": lambda: ExploreWorkload(),
}
