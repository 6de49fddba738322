"""Plan round-trips, output schema pins, and exit-code behavior."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from hammingperc import acceptance
from hammingperc.branching import GWSpec, tail_probability
from hammingperc.cli import (
    CSV_HEADER,
    MAX_EPSILONS,
    MAX_REPLICA_BYTES,
    ExperimentPlan,
    RunRecord,
    _build_parser,
    _plan_from_args,
    main,
    parse_epsilons,
    parse_plan,
    run,
    serialize_plan,
    supercritical_regime_check,
)
from hammingperc.graph import DomainError, HammingGraph


def test_parse_epsilons_forms():
    assert parse_epsilons("0.15") == (0.15,)
    assert parse_epsilons("0.1, 0.2,0.3") == (0.1, 0.2, 0.3)
    sweep = parse_epsilons("0.05:0.30:0.05")
    assert len(sweep) == 6
    assert sweep[0] == pytest.approx(0.05)
    assert sweep[-1] == pytest.approx(0.30)
    with pytest.raises(DomainError):
        parse_epsilons("0.3:0.1:0.05")
    with pytest.raises(DomainError):
        parse_epsilons("0.1:0.2")


def test_plan_round_trip():
    plans = [
        ExperimentPlan(experiment="simulate", d=2, n=300, epsilons=(0.15,),
                       k_thresholds=(2009, 5207), replicas=30, master_seed=3,
                       threads=4, out_csv="runs/a.csv", out_json="runs/a.json"),
        ExperimentPlan(experiment="sweep", n=50,
                       epsilons=parse_epsilons("0.05:0.30:0.05"),
                       replicas=20, master_seed=9),
        ExperimentPlan(experiment="sprinkle", n=500, epsilons=(0.1,),
                       eta=0.0398, replicas=20),
        ExperimentPlan(experiment="gw", epsilons=(0.05,), gw_N=2000,
                       tail_ell=10_000),
    ]
    for plan in plans:
        assert parse_plan(serialize_plan(plan)) == plan


def test_plan_text_and_json_are_pinned():
    plans = [
        ExperimentPlan(experiment="simulate", d=2, n=300, epsilons=(0.15,),
                       k_thresholds=(2009, 5207), replicas=30, master_seed=3,
                       threads=4, out_csv="runs/a.csv", out_json="runs/a.json"),
        ExperimentPlan(experiment="sweep", n=50,
                       epsilons=parse_epsilons("0.05:0.30:0.05"),
                       replicas=20, master_seed=9),
        ExperimentPlan(experiment="sprinkle", n=500, epsilons=(0.1,),
                       eta=0.0398, replicas=20),
        ExperimentPlan(experiment="gw", epsilons=(0.05,), gw_N=2000,
                       tail_ell=10_000),
    ]
    texts = [
        "[plan]\nexperiment = simulate\nd = 2\nn = 300\neps = 0.15\n"
        "replicas = 30\nseed = 3\nthreads = 4\nk = 2009,5207\n"
        "out_csv = runs/a.csv\nout_json = runs/a.json\n",
        "[plan]\nexperiment = sweep\nd = 2\nn = 50\n"
        "eps = 0.05,0.1,0.15000000000000002,0.2,0.25,0.3\n"
        "replicas = 20\nseed = 9\nthreads = 1\n",
        "[plan]\nexperiment = sprinkle\nd = 2\nn = 500\neps = 0.1\n"
        "replicas = 20\nseed = 0\nthreads = 1\neta = 0.0398\n",
        "[plan]\nexperiment = gw\nd = 2\nn = 10\neps = 0.05\n"
        "replicas = 1\nseed = 0\nthreads = 1\nN = 2000\ntail = 10000\n",
    ]
    dicts = [
        {"experiment": "simulate", "d": 2, "n": 300, "eps": "0.15",
         "replicas": 30, "seed": 3, "threads": 4, "k": "2009,5207",
         "out_csv": "runs/a.csv", "out_json": "runs/a.json"},
        {"experiment": "sweep", "d": 2, "n": 50,
         "eps": "0.05,0.1,0.15000000000000002,0.2,0.25,0.3",
         "replicas": 20, "seed": 9, "threads": 1},
        {"experiment": "sprinkle", "d": 2, "n": 500, "eps": "0.1",
         "replicas": 20, "seed": 0, "threads": 1, "eta": "0.0398"},
        {"experiment": "gw", "d": 2, "n": 10, "eps": "0.05", "replicas": 1,
         "seed": 0, "threads": 1, "N": 2000, "tail": 10000},
    ]
    for plan, text, pinned in zip(plans, texts, dicts):
        assert serialize_plan(plan) == text
        record = RunRecord(plan=plan, rows=[], summary={}, warnings=[],
                           version="", timestamp="", total_seconds=0.0)
        got = json.loads(record.to_json())["plan"]
        assert list(got.items()) == list(pinned.items())  # order too


def test_plan_validation():
    with pytest.raises(DomainError):
        ExperimentPlan(experiment="mystery").validate()
    with pytest.raises(DomainError):
        ExperimentPlan(experiment="simulate", replicas=0).validate()
    with pytest.raises(DomainError):
        ExperimentPlan(experiment="simulate",
                       epsilons=(0.1, 0.2)).validate()
    with pytest.raises(DomainError):
        ExperimentPlan(experiment="simulate", k_thresholds=(3, 0)).validate()
    with pytest.raises(DomainError):
        ExperimentPlan(experiment="gw", gw_N=2000).validate()


def test_csv_schema_is_pinned():
    assert CSV_HEADER == ("experiment", "d", "n", "epsilon", "eta", "seed",
                          "replica", "cmax", "c2", "z_k", "z_value")
    plan = ExperimentPlan(experiment="simulate", n=8, epsilons=(0.2,),
                          k_thresholds=(2, 5), replicas=3, master_seed=7)
    record, code = run(plan)
    assert code == 0
    lines = record.to_csv().splitlines()
    assert lines[0] == "experiment,d,n,epsilon,eta,seed,replica,cmax,c2,z_k,z_value"
    assert len(lines) == 1 + 3 * 2  # one row per (replica, k)
    first = lines[1].split(",")
    assert first[:7] == ["simulate", "2", "8", "0.2", "", "7", "0"]
    assert first[9] == "2"


def test_identical_plans_give_identical_csv_bytes():
    plan = ExperimentPlan(experiment="simulate", n=12, epsilons=(0.3,),
                          k_thresholds=(4,), replicas=5, master_seed=21)
    a, _ = run(plan)
    b, _ = run(plan)
    assert a.to_csv() == b.to_csv()


def test_parallel_and_serial_runs_agree():
    # H(2,10) and the H(2,3) sweep both run batched; each worker takes a
    # contiguous block of each epsilon's streams
    for serial in (
        ExperimentPlan(experiment="simulate", n=10, epsilons=(0.25,),
                       k_thresholds=(3,), replicas=4, master_seed=5),
        ExperimentPlan(experiment="sweep", n=3,
                       epsilons=parse_epsilons("-0.6:1.0:0.8"),
                       k_thresholds=(2, 4, 6), replicas=40, master_seed=101),
    ):
        a, _ = run(serial)
        b, _ = run(replace(serial, threads=2))
        assert a.to_csv() == b.to_csv()


def test_sweep_emits_one_row_per_eps_replica():
    plan = ExperimentPlan(experiment="sweep", n=8,
                          epsilons=parse_epsilons("0.1:0.3:0.1"),
                          k_thresholds=(3,), replicas=2, master_seed=2)
    record, _ = run(plan)
    assert len(record.rows) == 3 * 2
    assert sorted({row[3] for row in record.rows}) == ["0.1", "0.2", "0.30000000000000004"]


def test_explore_and_sprinkle_rows():
    explored, _ = run(ExperimentPlan(experiment="explore", n=12,
                                     epsilons=(0.3,), k_thresholds=(5,),
                                     replicas=3, master_seed=1))
    assert len(explored.rows) == 3
    assert all(row[9] == "5" for row in explored.rows)
    sprinkled, _ = run(ExperimentPlan(experiment="sprinkle", n=12,
                                      epsilons=(0.3,), eta=0.2, replicas=2,
                                      master_seed=1))
    assert len(sprinkled.rows) == 2
    assert all(row[4] == "0.2" for row in sprinkled.rows)
    assert "merged_fraction" in sprinkled.summary


def test_regime_warnings():
    def note_for(eps):
        return supercritical_regime_check(
            ExperimentPlan(experiment="simulate", n=300, epsilons=(eps,))
        )

    assert note_for(0.15) == []
    assert "critical window" in note_for(0.0)[0]
    assert "below" in note_for(0.01)[0]
    assert "above" in note_for(0.7)[0]
    assert supercritical_regime_check(
        ExperimentPlan(experiment="gw", epsilons=(0.01,), gw_N=10,
                       tail_ell=5)
    ) == []


def test_main_writes_csv_and_json(tmp_path):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    code = main([
        "simulate", "--n", "8", "--eps", "0.2", "--replicas", "2",
        "--k", "2,5", "--seed", "7",
        "--out-csv", str(csv_path), "--out-json", str(json_path),
    ])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("experiment,")
    assert len(lines) == 1 + 2 * 2
    payload = json.loads(json_path.read_text())
    assert payload["plan"]["experiment"] == "simulate"
    assert len(payload["rows"]) == 4
    assert payload["version"]
    assert payload["timestamp"]


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "plan.cfg"
    plan = ExperimentPlan(experiment="simulate", n=9, epsilons=(0.2,),
                          k_thresholds=(2,), replicas=3, master_seed=4)
    cfg_path.write_text(serialize_plan(plan))
    out_csv = tmp_path / "rows.csv"
    code = main([
        "simulate", "--config", str(cfg_path), "--replicas", "1",
        "--out-csv", str(out_csv),
    ])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 1  # flag overrode the config's 3 replicas
    assert lines[1].split(",")[2] == "9"  # n came from the config


def test_gw_prints_tail_to_full_precision(capsys):
    code = main(["gw", "--N", "2000", "--eps", "0.05", "--tail", "10000"])
    assert code == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if "total progeny" in l)
    printed = float(line.rsplit("=", 1)[1])
    exact = tail_probability(GWSpec(2000, 1.05 / 2000), 10_000)
    assert printed == pytest.approx(exact, rel=1e-14)


def test_exit_codes(tmp_path, monkeypatch):
    # numeric-domain error: epsilon far outside [-1, degree - 1]
    assert main(["simulate", "--n", "8", "--eps", "99"]) == 3
    # usage error from argparse
    with pytest.raises(SystemExit) as info:
        main(["unknown-subcommand"])
    assert info.value.code == 2
    # acceptance failure propagates as exit code 1
    fake = lambda: acceptance.CriterionResult(1, "stub", False, "forced", 0.0)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (fake,))
    assert main(["verify"]) == 1


def test_hp_threads_env_default(monkeypatch, tmp_path):
    monkeypatch.setenv("HP_THREADS", "3")
    args = _build_parser().parse_args(["simulate", "--n", "8"])
    assert _plan_from_args(args).threads == 3
    monkeypatch.delenv("HP_THREADS")
    args = _build_parser().parse_args(["simulate", "--n", "8"])
    assert _plan_from_args(args).threads == 1
    # flag > config file > HP_THREADS > 1
    cfg_path = tmp_path / "plan.cfg"
    cfg_path.write_text("[plan]\nn = 8\nthreads = 2\n")
    monkeypatch.setenv("HP_THREADS", "3")
    args = _build_parser().parse_args(["simulate", "--config", str(cfg_path)])
    assert _plan_from_args(args).threads == 2
    args = _build_parser().parse_args(["simulate", "--config", str(cfg_path),
                                       "--threads", "4"])
    assert _plan_from_args(args).threads == 4


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "8", "--k", "abc"],
    ["sweep", "--n", "8", "--eps", "0.1:abc:1"],
    ["simulate", "--n", "8", "--eps", "abc"],
    ["simulate", "--d", "two"],
    ["simulate", "--n", "8", "--replicas", "x"],
    ["simulate", "--n", "8", "--seed", "1.5"],
    ["sprinkle", "--n", "8", "--eta", "abc"],
])
def test_malformed_flag_numbers_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_malformed_hp_threads_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HP_THREADS", "x")
    assert main(["simulate", "--n", "8"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: HP_THREADS must be an integer, got 'x'"]


@pytest.mark.parametrize("text", ["[plan]\nd = two\n", "d = 2\n"])
def test_malformed_config_file_is_a_usage_error(text, tmp_path, capsys):
    cfg_path = tmp_path / "plan.cfg"
    cfg_path.write_text(text)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_non_finite_eta_is_a_domain_error(eta, capsys):
    assert main(["sprinkle", "--n", "8", "--eps", "0.1", "--eta", eta]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: eta must be finite, got {float(eta)}"]


def test_explore_rejects_d3_before_any_warning(capsys):
    with pytest.raises(DomainError):
        ExperimentPlan(experiment="explore", d=3).validate()
    # eps far below the supercritical range would warn if validation ran late
    assert main(["explore", "--d", "3", "--n", "10", "--eps", "0.001"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: explore runs on d = 2 only, got d = 3"]


@pytest.mark.parametrize("eps", ["0:inf:1", "0:nan:1", "0.1:0.2:1e-300"])
def test_unbounded_epsilon_range_is_a_domain_error(eps, capsys):
    assert main(["sweep", "--n", "8", "--eps", eps]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_epsilon_range_size_cap():
    assert len(parse_epsilons(f"0:{MAX_EPSILONS - 1}:1")) == MAX_EPSILONS
    with pytest.raises(DomainError):
        parse_epsilons(f"0:{MAX_EPSILONS}:1")


@pytest.mark.parametrize("argv, bad", [
    (["sweep", "--n", "8", "--eps", "0.1,nan", "--replicas", "3"], "nan"),
    (["simulate", "--n", "8", "--eps", "inf"], "inf"),
    (["simulate", "--n", "8", "--eps", "20"], "20.0"),
    (["explore", "--n", "8", "--eps", "-3"], "-3.0"),
])
def test_bad_epsilon_is_rejected_before_anything_runs(argv, bad, capsys):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""  # no replica ran, no summary printed
    assert err == (f"error: epsilon={bad} puts p outside [0, 1]; "
                   "valid range is [-1, 13]\n")


def test_oversized_plan_is_refused_before_anything_runs(capsys):
    # V = 10^15; unguarded this runs until it is killed, so the plan alone
    # is checked first
    with pytest.raises(DomainError):
        ExperimentPlan(experiment="simulate", d=3, n=100000).validate()
    assert main(["simulate", "--d", "3", "--n", "100000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: one replica on H(3, 100000) needs about ")
    assert err.count("\n") == 1
    # V = 10^400 would overflow a float estimate
    assert main(["simulate", "--n", str(10**200)]) == 3
    assert capsys.readouterr().err.endswith(" has over 2**64 vertices\n")


def test_size_guard_counts_every_worker_of_a_pool():
    # validate only: a missed refusal must not start four workers
    plan = ExperimentPlan(experiment="simulate", n=4000, epsilons=(0.1,))
    one = plan.replica_bytes(HammingGraph(2, 4000))
    assert one < MAX_REPLICA_BYTES < 4 * one
    plan.validate()
    pooled = replace(plan, threads=4)
    assert pooled.replica_bytes(HammingGraph(2, 4000)) == 4 * one
    with pytest.raises(DomainError, match="^4 replicas at once on H.2, 4000. "
                                          "need about 5.13 GiB"):
        pooled.validate()
    # explore and sprinkle run no pool
    replace(pooled, experiment="sprinkle").validate()


def test_importing_the_package_leaves_scipy_stats_unloaded():
    done = subprocess.run(
        [sys.executable, "-c",
         "import hammingperc, sys; assert 'scipy.stats' not in sys.modules"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("experiment, d, n, eps", [
    ("simulate", 2, 300, 0.15), ("simulate", 3, 60, 0.1),
    ("simulate", 2, 1000, 0.1), ("sweep", 2, 3, 1.0),
    ("sprinkle", 2, 500, 0.1), ("explore", 2, 300, 0.1),
])
def test_benchmark_shapes_pass_the_size_guard(experiment, d, n, eps):
    plan = ExperimentPlan(experiment=experiment, d=d, n=n, epsilons=(eps,))
    plan.validate()
    assert plan.replica_bytes(HammingGraph(d, n)) < MAX_REPLICA_BYTES / 10


@pytest.mark.parametrize("k, bad", [("0", 0), ("-5", -5), ("3,0", 0)])
def test_k_below_one_is_rejected_before_any_warning(k, bad, capsys):
    # eps far below the supercritical range would warn if validation ran late
    assert main(["simulate", "--n", "8", "--eps", "0.001", "--k", k]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: need k >= 1, got {bad}"]


@pytest.mark.parametrize("line", ["replica = 3", "eta_rule = explicit"])
def test_unknown_config_key_is_a_usage_error(line, tmp_path, capsys):
    cfg_path = tmp_path / "plan.cfg"
    cfg_path.write_text(f"[plan]\nn = 8\n{line}\n")
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: unknown config key {line.split()[0]!r}"]


def test_config_eta_is_used(tmp_path):
    cfg_path = tmp_path / "plan.cfg"
    cfg_path.write_text("[plan]\nn = 20\neps = 0.2\neta = 0.01\n")
    out_csv = tmp_path / "rows.csv"
    assert main(["sprinkle", "--config", str(cfg_path),
                 "--out-csv", str(out_csv)]) == 0
    row = out_csv.read_text().splitlines()[1].split(",")
    assert row[CSV_HEADER.index("eta")] == "0.01"
