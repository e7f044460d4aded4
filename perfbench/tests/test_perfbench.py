"""Tests of the benchmark's own code: tracer, metrics and workloads."""

import json
import re
import shutil
import subprocess
import sys

import pytest

import layers
import run
import spans
import suites

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def installed_wrappers():
    """``module.attr`` of every tracer wrapper currently bound."""
    found = []
    for holder in list(sys.modules.values()):
        if not getattr(holder, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(holder).items()):
            if getattr(value, "__wrapped_by_perfbench__", False):
                found.append(f"{holder.__name__}.{attr}")
            elif isinstance(value, type):
                for name, member in vars(value).items():
                    if getattr(member, "__wrapped_by_perfbench__", False):
                        found.append(f"{holder.__name__}.{attr}.{name}")
    return found


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty private trace cache on the event engine."""
    from repro.trace import cache

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_REPLAY_ENGINE", "event")
    monkeypatch.delenv("REPRO_NO_TRACE_CACHE", raising=False)
    cache._memo.clear()
    yield tmp_path
    cache._memo.clear()


def test_metric_names_use_the_allowed_characters():
    names = list(layers.METRICS) + [m["name"]
                                    for m in BENCHMARK["end_to_end"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.match(name) for name in names), [
        name for name in names if not NAME.match(name)]
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_what_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        suites.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, layers.unit_of(name)) for name in layers.METRICS]
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "ok_share"}


def test_wrappers_are_removed_after_a_traced_run(fresh_cache):
    import repro.evalx as evalx
    from repro.evalx import common, table1

    replay = sys.modules["repro.trace.replay"]
    before = (common.replay, common.run_workload, table1.run_workload)
    with spans.Tracer() as tracer:
        assert installed_wrappers()
        assert common.run_workload is table1.run_workload
        # called the way golden.compare_golden looks it up
        evalx.run_experiment("table1", scale=0.05, seed=3)
    assert installed_wrappers() == []
    assert (common.replay, common.run_workload,
            table1.run_workload) == before
    assert common.replay is replay.replay
    names = {span[2] for span in tracer.spans}
    assert {"evalx.run_experiment", "run_workload", "cache.load",
            "workloads.run"} <= names


def test_traced_outputs_match_untraced_and_goldens(fresh_cache):
    from repro.evalx import run_experiment
    from repro.evalx.golden import compare_golden

    plain = run_experiment("fig11", scale=0.05, seed=5).to_dict()
    with spans.Tracer() as tracer:
        traced = run_experiment("fig11", scale=0.05, seed=5).to_dict()
        deviations = compare_golden("table1")
    assert json.dumps(traced, sort_keys=True) == json.dumps(
        plain, sort_keys=True)
    assert deviations == []
    metrics = layers.pass_metrics(tracer.spans, layers.cache_counts(""),
                                  {})
    assert metrics["core.cells"] > 0
    # table1 ran cold: its timing-sensitive cells execute directly
    assert 0 < metrics["replay.events"] < metrics["core.events"]


def test_cell_spans_hang_under_their_watched_run():
    parent = [[1, None, "runner.cell", 0, 100, "table1/Quicksort/0", {}],
              [2, None, "journal.append", 100, 110, None, {}]]
    child = [[1, None, "run_workload", 10, 60, "table1/Quicksort/0",
              {"events": 7}],
             [2, 1, "replay", 20, 50, "table1/Quicksort/0", {"events": 7}]]
    merged = layers.merge_cell_spans(parent, [child])
    assert [span[:2] for span in merged] == [[1, None], [2, None],
                                             [3, 1], [4, 3]]
    metrics = layers.pass_metrics(merged, layers.cache_counts(
        "HIT GateSim a.trace\nMISS Gamteb b.trace\nRECORD Gamteb b\n"),
        {"runner.dropped": 0})
    assert metrics["runner.cells"] == 1
    assert metrics["runner.cell_busy_s"] == pytest.approx(100e-9)
    assert metrics["replay.s"] == pytest.approx(30e-9)
    assert metrics["core.events"] == 7
    assert (metrics["cache.hits"], metrics["cache.misses"],
            metrics["cache.records"]) == (1, 1, 1)


def test_cell_id_of_a_runner_command():
    command = [sys.executable, "-m", "repro.evalx.runner", "run-cell",
               "compression", "GateSim/nsf-1", "--scale", "0.35",
               "--seed", "11", "--attempt", "1"]
    assert spans.cell_id_of(command) == "compression/GateSim/nsf-1/1"
    assert spans.cell_id_of(["python", "x.py"]) is None


@pytest.mark.parametrize("engine", ["event", "oracle"])
def test_sweeps_smoke_is_byte_identical_across_engines(
        fresh_cache, monkeypatch, engine):
    reference = suites.run_sweeps(2, fresh_cache, scale=0.05)
    monkeypatch.setenv("REPRO_REPLAY_ENGINE", engine)
    outcomes = suites.run_sweeps(2, fresh_cache, scale=0.05)
    assert all(outcome["ok"] for outcome in outcomes)
    assert [o["digest"] for o in outcomes] == [
        o["digest"] for o in reference]


def test_goldens_smoke(fresh_cache):
    outcomes = suites.run_goldens(0, fresh_cache,
                                  names=("fig05", "profile", "table1"))
    assert [(o["name"], o["ok"]) for o in outcomes] == [
        ("fig05", True), ("profile", True), ("table1", True)]


def test_runner_smoke(fresh_cache):
    outcomes, counters = suites.run_runner(0, fresh_cache,
                                           experiments=("table1",))
    assert len(outcomes) == 9
    assert all(outcome["ok"] for outcome in outcomes)
    assert counters == {"runner.dropped": 0}


def test_sweep_digest_mismatch_counts_as_a_failure():
    outcomes = [{"name": "fig09", "ok": True, "digest": "a", "error": None}]
    assert run.check_outcomes(outcomes, {"fig09": "a"})[0]["ok"]
    assert not run.check_outcomes(outcomes, {"fig09": "b"})[0]["ok"]


def test_expectations_flag_a_wrong_split():
    metrics = dict.fromkeys(layers.METRICS, 0)
    metrics.update({"oracle.scans": 3, "core.cells": 1, "core.events": 1,
                    "setup.cache.records": 1, "setup.workloads.runs": 1,
                    "replay.s": 2.0})
    held = {text: holds for _, text, holds, _ in
            layers.check_expectations({"sweeps": (metrics, 3.0)})}
    assert not held["oracle.scans non-zero only on sweeps-oracle"]
    assert held["core.cells and core.events are non-zero"]
    assert held["event replay is most of the warm sweeps pass"]


def test_runner_journal_appends_exclude_the_chaos_campaign():
    spans_ = [[1, None, "evalx.run_experiment", 0, 50, None,
               {"experiment": "chaos"}],
              [2, 1, "journal.append", 10, 20, None, {}],
              [3, None, "journal.append", 60, 70, None, {}]]
    metrics = layers.pass_metrics(spans_, layers.cache_counts(""), {})
    assert metrics["journal.appends"] == 1
    assert metrics["evalx.chaos.s"] == pytest.approx(50e-9)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweeps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
