"""The three benchmark workloads: their gluing documents, job rounds, the
certificate call each job makes, and the checks on its output.

A run is a closed loop from one process: each job starts after the previous
one has finished and been checked.  Jobs come in rounds; a run always ends on
a whole round, so every run sees the same mix of inputs.  Every input is made
from the workload seed alone.

The package must already be importable (``run.load_program`` arranges that).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import posetglue
from posetglue import cli

WORKLOADS = ("fig1-trials", "build-scale", "random-gluings")

#: The recorded seed kept out of development runs, for confirming a claim on
#: a seed that was not used while the change was written.
HELD_OUT_SEED = 9001

#: Evaluation parameters, the library defaults, passed explicitly so that the
#: traced rebuild uses exactly the values the certificate used.
MAX_DIM = 3
WINDOW = (-2, 2)

FIG1_TRIALS = 20
FIG1_FIELDS = ("q", "p:5")
#: (n, k): X is a chain of n elements, Y is k disjoint chains of length n,
#: and Y_{x_i} holds the height-i element of each chain; |X ⊔ Y| = n(k + 1).
#: Three of the five shapes lie close together in the middle, so that the
#: median certificate rests on many samples.
BUILD_SHAPES = ((6, 3), (9, 3), (8, 4), (9, 4), (10, 4))
BUILD_ROUNDS = 64
RANDOM_ROUND = 16
RANDOM_TRIALS = 3
#: Every INVALID_EVERY-th random-gluings document is invalid.
INVALID_EVERY = 8
#: Documents generated per second of run, about twice the present rate, so a
#: faster program still runs for the whole run length.
RANDOM_DOCS_PER_SECOND = 32


def bench_seed(*keys) -> int:
    """A 63-bit seed derived from the keys, independent of the library's RNG."""
    digest = hashlib.sha256("/".join(str(k) for k in keys).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class Job:
    """One certificate request.

    In-process jobs call ``gluing_from_json`` on ``doc`` and then
    ``verify_equivalence``; CLI jobs run ``posetglue verify theorem --json``
    on ``path`` in this process.  ``reject_witness`` is set on documents that
    must be rejected: the CLI must exit 1 and name that element.
    """

    workload: str
    number: int
    doc: dict
    trials: int
    seed: int
    field: str
    via_cli: bool
    path: str | None = None
    reject_witness: str | None = None

    def argv(self) -> list:
        return [
            "verify", "theorem", "--gluing", self.path,
            "--trials", str(self.trials), "--seed", str(self.seed),
            "--field", self.field, "--max-dim", str(MAX_DIM),
            "--window", str(WINDOW[0]), str(WINDOW[1]), "--json",
        ]


@dataclass
class Outcome:
    """What one job produced, with the wall seconds of the certificate call."""

    seconds: float
    cert: object = None  # EquivalenceCertificate of an in-process job
    doc: dict | None = None  # the certificate JSON
    code: int | None = None  # CLI exit code
    stderr: str = ""
    error: str | None = None  # an exception the call raised

    @property
    def trials(self) -> int:
        return len(self.doc["trials"]) if self.doc else 0


# --- gluing documents ---------------------------------------------------------

def chain_of_chains(n: int, k: int, tag: str) -> dict:
    """The witness-chain gluing of shape (n, k), with labels prefixed by tag."""
    xs = [f"{tag}x{i}" for i in range(n)]
    ys = [[f"{tag}c{j}h{i}" for i in range(n)] for j in range(k)]
    return {
        "X": {"elements": xs, "relations": [[a, b] for a, b in zip(xs, xs[1:])]},
        "Y": {
            "elements": [y for chain in ys for y in chain],
            "relations": [[a, b] for chain in ys for a, b in zip(chain, chain[1:])],
        },
        "Yx": {x: [chain[i] for chain in ys] for i, x in enumerate(xs)},
    }


def shared_bound_doc(tag: str):
    """A document whose two witnesses share an upper bound, and that bound.

    Validation must reject it with an AntichainViolation naming the bound.
    """
    a, b, top = f"{tag}a", f"{tag}b", f"{tag}t"
    doc = {
        "X": {"elements": [f"{tag}x"], "relations": []},
        "Y": {"elements": [a, b, top], "relations": [[a, top], [b, top]]},
        "Yx": {f"{tag}x": [a, b]},
    }
    return doc, top


def _tag(*keys) -> str:
    return f"g{bench_seed(*keys) % 0x10000:04x}"


class Inputs:
    """A workload's inputs for one seed: the documents and the job rounds.

    Building an instance is the benchmark's set-up.  CLI documents are
    written under ``workdir``.
    """

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.fields = {f: posetglue.Field.parse(f) for f in FIG1_FIELDS}
        if workload == "fig1-trials":
            self.docs = [
                posetglue.gluing_to_json(posetglue.figure_one_gluing(pair)[0])
                for pair in posetglue.FIGURE_ONE_PAIRS
            ]
        elif workload == "build-scale":
            self.docs = [
                chain_of_chains(n, k, _tag(seed, workload, r, n, k))
                for r in range(BUILD_ROUNDS)
                for n, k in BUILD_SHAPES
            ]
        else:
            rounds = max(1, math.ceil(seconds * RANDOM_DOCS_PER_SECOND / RANDOM_ROUND))
            self._make_random_docs(rounds * RANDOM_ROUND)

    def _make_random_docs(self, count: int) -> None:
        self.docs, self.witnesses, seen = [], {}, set()
        draw = 0
        while len(self.docs) < count:
            if len(self.docs) % INVALID_EVERY == INVALID_EVERY - 1:
                doc, top = shared_bound_doc(_tag(self.seed, "invalid", len(self.docs)))
                self.witnesses[len(self.docs)] = top
            else:
                g = posetglue.random_gluing(bench_seed(self.seed, "random", draw))
                draw += 1
                doc = posetglue.gluing_to_json(g)
                key = json.dumps(doc, sort_keys=True)
                if key in seen:
                    continue
                seen.add(key)
            self.docs.append(doc)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for i, doc in enumerate(self.docs):
            (self.workdir / f"gluing-{i}.json").write_text(json.dumps(doc))

    def rounds(self) -> int:
        """How many distinct rounds the inputs hold."""
        if self.workload == "fig1-trials":
            return 1 << 30
        if self.workload == "build-scale":
            return BUILD_ROUNDS
        return len(self.docs) // RANDOM_ROUND

    def round_jobs(self, r: int) -> list:
        """The jobs of round r, in the order they run."""
        w, seed = self.workload, self.seed
        if w == "fig1-trials":
            # Each gluing under both fields, the fields alternating job by job.
            n = len(self.docs)
            return [
                Job(w, r * 2 * n + j, self.docs[j % n], FIG1_TRIALS,
                    bench_seed(seed, w, r, j), FIG1_FIELDS[j % 2], False)
                for j in range(2 * n)
            ]
        if w == "build-scale":
            per = len(BUILD_SHAPES)
            order = sorted(range(per), key=lambda j: bench_seed(seed, w, "order", r, j))
            return [
                Job(w, r * per + j, self.docs[r * per + j], 1,
                    bench_seed(seed, w, r, j), "q", False)
                for j in order
            ]
        jobs = []
        for i in range(r * RANDOM_ROUND, (r + 1) * RANDOM_ROUND):
            witness = self.witnesses.get(i)
            jobs.append(
                Job(w, i, self.docs[i], RANDOM_TRIALS,
                    bench_seed(seed, w, i), "q", True,
                    str(self.workdir / f"gluing-{i}.json"), witness)
            )
        return jobs


# --- running and checking one job ---------------------------------------------

def run_job(job: Job, fields: dict) -> Outcome:
    """Issue one certificate, timing only the certificate call."""
    if job.via_cli:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(job.argv())
            except Exception as exc:  # the run goes on; the job is a failure
                return Outcome(time.perf_counter() - start, error=repr(exc))
            seconds = time.perf_counter() - start
        text = out.getvalue()
        doc = json.loads(text) if code == 0 and text else None
        return Outcome(seconds, doc=doc, code=code, stderr=err.getvalue())
    start = time.perf_counter()
    try:
        g = posetglue.gluing_from_json(job.doc)
        cert = posetglue.verify_equivalence(
            g, trials=job.trials, seed=job.seed, field=fields[job.field],
            max_dim=MAX_DIM, window=WINDOW,
        )
    except Exception as exc:  # the run goes on; the job is a failure
        return Outcome(time.perf_counter() - start, error=repr(exc))
    seconds = time.perf_counter() - start
    return Outcome(seconds, cert=cert, doc=cert.to_json())


def digest(cert_doc: dict) -> str:
    """SHA-256 of the canonical JSON of a certificate's description, config
    and trials.  The structural entries are left out on purpose: their schema
    is due to change without the certificates changing."""
    body = {k: cert_doc[k] for k in ("description", "config", "trials")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(job: Job, outcome: Outcome, recorded: str | None) -> list:
    """Problems with a job's output; an empty list means it is correct.

    ``recorded`` is the digest on record for this job, or None when the
    seed or job is not recorded.
    """
    if outcome.error:
        return [f"raised {outcome.error}"]
    if job.reject_witness is not None:
        if outcome.code != 1:
            return [f"invalid document exited {outcome.code}, expected 1"]
        if repr(job.reject_witness) not in outcome.stderr:
            return [f"rejection does not name the witness {job.reject_witness!r}"]
        return []
    if job.via_cli and outcome.code != 0:
        return [f"exit code {outcome.code}: {outcome.stderr.strip()}"]
    doc = outcome.doc
    problems = []
    if not doc.get("ok"):
        problems.append("certificate is not ok")
    failing = [s.get("name") for s in doc["structural"] if s.get("pass") is not True]
    if failing:
        problems.append(f"structural checks without pass: {failing}")
    cfg = doc["config"]
    if (cfg.get("trials"), cfg.get("seed"), cfg.get("field")) != (
        job.trials, job.seed, job.field
    ):
        problems.append(f"config {cfg} does not match the request")
    if len(doc["trials"]) != job.trials or not all(t["verdict"] for t in doc["trials"]):
        problems.append("trial count or verdicts wrong")
    if recorded is not None and digest(doc) != recorded:
        problems.append("digest differs from the recorded one")
    return problems


def load_digests(path: Path) -> dict:
    """Recorded digests: workload -> seed (as a string) -> the digests of the
    round-0 jobs, indexed by job number (None for a rejected document)."""
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def recorded_digest(digests: dict, job: Job, seed: int) -> str | None:
    """The recorded digest of a job, or None when there is none."""
    table = digests.get(job.workload, {}).get(str(seed), [])
    return table[job.number] if job.number < len(table) else None
