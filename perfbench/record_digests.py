"""Record the certificate digests that runs of the benchmark check against.

    python3 perfbench/record_digests.py

Run from the repository root, on a commit whose certificates are known good.
For every workload and every recorded seed it issues the round-0
certificates and writes their digests to perfbench/digests.json.  Jobs
outside round 0, and seeds not recorded, are still checked in every other
way.  Re-record only for a deliberate change of the certificates.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

RECORDED_SEEDS = tuple(range(32))


def round0_digests(inputs) -> list:
    """The digests of a workload's round-0 jobs, indexed by job number."""
    from workloads import check, digest, run_job

    jobs = inputs.round_jobs(0)
    row = [None] * len(jobs)
    for job in jobs:
        outcome = run_job(job, inputs.fields)
        problems = check(job, outcome, None)
        if problems:
            raise SystemExit(f"{job.workload} seed {inputs.seed} job {job.number}: {problems}")
        if not job.reject_witness:
            row[job.number] = digest(outcome.doc)
    return row


def main() -> int:
    run.load_program()
    from workloads import HELD_OUT_SEED, WORKLOADS, Inputs

    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT))
    table = {}
    try:
        for workload in WORKLOADS:
            table[workload] = {}
            for seed in RECORDED_SEEDS + (HELD_OUT_SEED,):
                inputs = Inputs(workload, seed, 1, workdir / workload)
                table[workload][str(seed)] = round0_digests(inputs)
                print(f"{workload} seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
