"""scripts/bench_pairs.py keeps the pairs it has measured when a later
step fails, names each side's code by a hash of its sources, and times
every micro run on both of its paths."""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs",
    Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_record_holds_the_finished_workloads_when_micro_runs_fail(
        tmp_path, monkeypatch):
    def bench_once(checkout, workload, seed):
        return {"correct": True, "failed": 0, "attempted": 1,
                **{m: 1.0 + seed for m in bench_pairs.METRICS}}

    def micro_in(checkout):
        raise RuntimeError("micro run failed")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "bench_once", bench_once)
    monkeypatch.setattr(bench_pairs, "micro_in", micro_in)
    monkeypatch.setattr(bench_pairs, "commit", lambda checkout: None)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--before", str(tmp_path), "--after",
        str(tmp_path), "--label", "t"])
    with pytest.raises(RuntimeError, match="micro run failed"):
        bench_pairs.main()
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(record["workloads"]) == list(bench_pairs.WORKLOADS)
    for workload in record["workloads"].values():
        assert workload["summary"]["all_correct"]
        assert len(workload["pairs"]["before"]) == bench_pairs.PAIRS
    assert "us_per_iter" not in record


def test_record_names_each_side_by_a_hash_of_its_sources(tmp_path,
                                                         monkeypatch):
    sides = {}
    for side in ("before", "after"):
        pkg = tmp_path / side / "src" / "dhb"
        pkg.mkdir(parents=True)
        (pkg / "engines.py").write_text("x = 1\n")
        (pkg / "notes.txt").write_text(side)  # not a source file
        sides[side] = tmp_path / side
    (sides["after"] / "src" / "dhb" / "engines.py").write_text("x = 2\n")

    def micro_in(checkout):
        raise RuntimeError("micro run failed")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "bench_once",
                        lambda checkout, workload, seed: {
                            "correct": True, "failed": 0, "attempted": 1,
                            **{m: 1.0 for m in bench_pairs.METRICS}})
    monkeypatch.setattr(bench_pairs, "micro_in", micro_in)
    monkeypatch.setattr(bench_pairs, "commit", lambda checkout: None)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--before", str(sides["before"]), "--after",
        str(sides["after"]), "--label", "t"])
    with pytest.raises(RuntimeError, match="micro run failed"):
        bench_pairs.main()
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["commits"] == {"before": None, "after": None}
    want = {side: hashlib.sha256(b"engines.py\0" + text).hexdigest()
            for side, text in (("before", b"x = 1\n"), ("after", b"x = 2\n"))}
    assert record["sources"] == want
    # a copy of a checkout, .git or not, hashes the same
    copy = tmp_path / "copy" / "src" / "dhb"
    copy.mkdir(parents=True)
    (copy / "engines.py").write_text("x = 1\n")
    assert bench_pairs.sources(tmp_path / "copy") == want["before"]


def test_micro_prints_both_paths_of_every_run(monkeypatch, capsys):
    # a fused kind and three that step one state at a time, 20 steps each
    runs = {"abm n=6": ("abm", (6, 2, 0.1, 3, True), 20),
            "extra n=6": ("extra", (6, 2, 0.1, 3, False), 20),
            "addopt n=6": ("addopt", (6, 2, 0.1, 3, True), 20),
            "heavy_ball n=6": ("heavy_ball", (6, 2, 0.1, 3, True), 20)}
    monkeypatch.setattr(bench_pairs, "MICRO_RUNS", runs)
    bench_pairs.micro(repeats=1)
    us = json.loads(capsys.readouterr().out)
    assert sorted(us) == sorted(f"{label} {path}" for label in runs
                                for path in ("run", "per_step"))
    assert all(0 < value < math.inf for value in us.values())
