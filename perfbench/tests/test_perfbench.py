"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import scale  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from vlsidesk import cli, interconnect  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def canonical(cases):
    return [json.dumps(c.case, sort_keys=True) for c in cases]


def test_same_seed_same_cases_other_seed_different():
    first = canonical(scale.generate(7))
    assert canonical(scale.generate(7)) == first
    other = canonical(scale.generate(8))
    assert other != first
    assert sorted(json.loads(c)["analysis"] for c in other) == \
        sorted(json.loads(c)["analysis"] for c in first)


def test_every_scale_case_passes_its_oracle():
    for sc in scale.generate(3):
        assert sc.check(cli.run_case(sc.case)) is None, sc.family


@pytest.mark.parametrize("n, powers, primitive", [
    (4, [0, 1, 4], True), (8, [0, 2, 3, 4, 8], True), (10, [0, 3, 10], True),
    (4, [0, 1, 2, 3, 4], False), (6, [0, 6], False)])
def test_primitivity_oracle(n, powers, primitive):
    assert scale.is_primitive(sum(1 << p for p in powers), n) is primitive


def test_planted_wrong_elmore_counts_as_failed(monkeypatch):
    import random
    sc = scale.ScaleCase("rc_deep", *scale.rc_deep(random.Random(1), 40))
    items = [("rc", sc, "elmore")]

    def execute(analysis, payload):
        report = cli.run_case(payload.case)
        return report, cli.render_json(report)

    def check(payload, report, text):
        return payload.check(report)

    honest = worker.Tally()
    worker.loop(items, execute, check, 1e-9, {}, honest)
    assert honest.failed == 0

    real = interconnect.elmore
    monkeypatch.setattr(interconnect, "elmore", lambda *a, **k: real(*a, **k) * (1 + 1e-6))
    planted = worker.Tally()
    worker.loop(items, execute, check, 1e-9, {}, planted)
    assert planted.failed == len(planted.latencies) == 1
    assert planted.first_diff.startswith("rc: delay")


def test_corpus_rule_reports_a_mismatch():
    report = {"results": {"t": {"value": [1.0, 2.0]}}}
    assert worker.check_expect(report, {"t.1": {"value": 2.0, "rel": 1e-9}}) is None
    assert worker.check_expect(report, {"t.1": {"value": 2.1, "rel": 1e-9}})
    assert worker.check_expect(report, {"u": {"value": 1}})


def test_tracer_accounts_for_the_case_and_uninstalls():
    original = cli.run_case
    path = os.path.join(ROOT, "cases", "test_atpg_smallest_vector.json")
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.run_case is not original
        t.case("atpg", worker.run_corpus, path)
    finally:
        t.uninstall()
    assert cli.run_case is original
    summary = t.summary()
    covered = sum(summary["self_s"].values())
    assert 0.9 * summary["case_s"] <= covered <= summary["case_s"]
    assert summary["counts"]["testability.atpg_exhaustive"] == 1
    assert summary["atpg_patterns"] >= 1
    assert {"cli.load_case", "cli.validate_case", "cli.render_json"} <= set(t.names)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_reported_metrics_match_the_declaration(trace, group):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "corpus",
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared()[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(NAME.fullmatch(name) for name in result["metrics"])


def test_declared_names_are_well_formed():
    bench = declared()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
