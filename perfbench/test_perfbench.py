"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

import workloads  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Workloads shrunk to a few small certificates, writing under tmp_path."""
    monkeypatch.setattr(workloads, "FIG1_TRIALS", 1)
    monkeypatch.setattr(workloads, "BUILD_SHAPES", ((2, 1), (3, 2)))
    monkeypatch.setattr(workloads, "BUILD_ROUNDS", 2)
    monkeypatch.setattr(workloads, "RANDOM_TRIALS", 1)
    monkeypatch.setattr(workloads, "RANDOM_ROUND", workloads.INVALID_EVERY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "no-digests.json")
    return tmp_path


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def _tiny_inputs(workload, tmp_path):
    return workloads.Inputs(workload, 5, 0.2, tmp_path / "docs")


def test_corrupted_digest_counts_as_failure(tiny):
    inputs = _tiny_inputs("fig1-trials", tiny)
    n = len(inputs.round_jobs(0))
    good = run.timed_run(inputs, 0.01, {})
    assert good["failed"] == 0
    recorded = []
    for job in inputs.round_jobs(0):
        doc = workloads.run_job(job, inputs.fields).doc
        recorded.append(workloads.digest(doc))
    table = {"fig1-trials": {"5": recorded}}
    assert run.timed_run(inputs, 0.01, table)["failed"] == 0
    recorded[2] = "0" * 64
    bad = run.timed_run(inputs, 0.01, table)
    assert bad["failed"] == 1 and bad["attempted"] == n


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_recorded_digests_are_checked(tiny, workload):
    from record_digests import round0_digests

    inputs = _tiny_inputs(workload, tiny)
    row = round0_digests(inputs)
    result = run.timed_run(inputs, 0.01, {workload: {"5": row}})
    assert result["failed"] == 0
    valid = [job for job in inputs.round_jobs(0) if not job.reject_witness]
    assert result["digests_compared"] == len(valid)


def test_accepted_invalid_document_counts_as_failure(tiny):
    inputs = _tiny_inputs("random-gluings", tiny)
    jobs = inputs.round_jobs(0)
    invalid = [job for job in jobs if job.reject_witness]
    assert invalid and run.timed_run(inputs, 0.01, {})["failed"] == 0
    Path(invalid[0].path).write_text(json.dumps(jobs[0].doc))
    assert run.timed_run(inputs, 0.01, {})["failed"] == 1


def test_traced_rebuild_matches_the_certificate(tiny):
    inputs = _tiny_inputs("build-scale", tiny)
    job = inputs.round_jobs(0)[0]
    import tracing

    outcome = workloads.run_job(job, inputs.fields)
    tracer = tracing.Tracer()
    _, counts, problems = tracing.traced_job(tracer, job, outcome, inputs.fields, tiny)
    assert problems == [] and counts["trials"] == 1 and counts["certs"] == 1
    outcome.doc["trials"][0]["verdict"] = not outcome.doc["trials"][0]["verdict"]
    _, _, problems = tracing.traced_job(tracer, job, outcome, inputs.fields, tiny)
    assert problems == ["rebuilt trials differ from the certificate's trial records"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1-trials", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
