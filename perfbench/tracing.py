"""The traced run: spans around each public call into a layer, recorded from
the benchmark's side, plus the exact work counts of each certificate.

A traced certificate is rebuilt from the public calls that
``verify_equivalence`` makes (``build_theorem_formulas``, ``build_epsilons``
and, per trial, ``derive_seed``, ``random_diagram``,
``EpsilonTransform.evaluate``, ``is_quasi_iso_diagram`` and
``cohomology_table``), each inside a span.  The rebuilt trial records must
equal those of the untraced certificate, so the per-layer split measures the
same program.  On CLI jobs ``cli.main`` runs with its two calls into the
library, ``gluing_from_json`` and ``verify_equivalence``, swapped for traced
stand-ins; the stand-in certificate call does the traced rebuild and returns
the untraced certificate, so the CLI emits the same report.

Probes time work that the certificate does inside a call that cannot be
split from outside: ``build_plus`` + ``build_minus`` (inside
``build_theorem_formulas``) and ``compose_formulas`` on both orders (inside
``build_epsilons``).  In-process jobs also get a CLI probe, which runs
``cli.main`` on the job's document with the certificate call answered at
once, so the CLI's own cost is measured on every workload.  Probes repeat
work and are left out of the accounting against the untraced time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import time
from pathlib import Path

import posetglue
from posetglue import cli

from workloads import MAX_DIM, WINDOW, Job, Outcome, run_job

#: Per-layer timers, by span name; the metric is the name with "_s" added.
LAYERS = (
    "gluing.validate",
    "gluing.orders",
    "harness.theorem_formulas",
    "harness.epsilons",
    "formula_cat.compose",
    "abelian_eval.draw",
    "harness.evaluate",
    "abelian_eval.qis",
    "abelian_eval.cohomology",
    "cli.run",
)
COUNTS = (
    "poset_core.leq_pairs",
    "poset_core.hasse_edges",
    "formula_cat.value_entries",
    "abelian_eval.stalk_dim_total",
    "trials",
    "certs",
)

CORNERS = ("plus_shift", "plus_round_trip", "minus_round_trip", "minus_shift")


class Tracer:
    """Spans kept in memory: name, parent span, start, end, certificate, and
    whether the span is a probe or lies inside one."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.cert = None

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self._open[-1] if self._open else None
        inside = parent is not None and self.spans[parent]["probe"] != "no"
        record = {
            "name": name,
            "parent": parent,
            "cert": self.cert,
            "probe": "inside" if inside else ("root" if probe else "no"),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, first: int = 0) -> dict:
        """Self time per span from index ``first`` on: its duration less the
        durations of its direct children."""
        spans = self.spans[first:]
        own = {first + i: s["end"] - s["start"] for i, s in enumerate(spans)}
        for s in spans:
            if s["parent"] is not None and s["parent"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


@contextlib.contextmanager
def _cli_calls(**stand_ins):
    """Swap names in the cli module's namespace for the duration."""
    saved = {name: getattr(cli, name) for name in stand_ins}
    for name, fn in stand_ins.items():
        setattr(cli, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def captured_job(job: Job, fields: dict) -> Outcome:
    """Run a job untraced, keeping the certificate object of a CLI job too."""
    if not job.via_cli:
        return run_job(job, fields)
    real, kept = cli.verify_equivalence, {}

    def keep(g, **kw):
        kept["cert"] = real(g, **kw)
        return kept["cert"]

    with _cli_calls(verify_equivalence=keep):
        outcome = run_job(job, fields)
    outcome.cert = kept.get("cert")
    return outcome


def _table_json(table: dict) -> dict:
    return {x: {str(i): n for i, n in sorted(row.items())} for x, row in table.items()}


def _rebuild(tracer: Tracer, g, job: Job, field):
    """The certificate's structure and trials from public calls, traced.

    Returns the trial records, the formulas (for the probes) and the four
    evaluated corners of every trial (for the counts).
    """
    with tracer.span("harness.theorem_formulas"):
        xi_plus, xi_minus = posetglue.build_theorem_formulas(g)
    with tracer.span("harness.epsilons"):
        eps_pm, eps_mp = posetglue.build_epsilons(g, xi_plus, xi_minus)
    plus, minus = xi_plus.base, xi_minus.base
    records, corners = [], []
    for i in range(job.trials):
        tseed = posetglue.derive_seed(job.seed, "trial", i)
        with tracer.span("abelian_eval.draw"):
            K = posetglue.random_diagram(
                plus, posetglue.derive_seed(tseed, "plus"), MAX_DIM, WINDOW
            )
        with tracer.span("abelian_eval.draw"):
            L = posetglue.random_diagram(
                minus, posetglue.derive_seed(tseed, "minus"), MAX_DIM, WINDOW
            )
        with tracer.span("harness.evaluate"):
            unit = eps_mp.evaluate(K)
        with tracer.span("harness.evaluate"):
            counit = eps_pm.evaluate(L)
        with tracer.span("abelian_eval.qis"):
            verdict = posetglue.is_quasi_iso_diagram(unit, field)
        if verdict:
            with tracer.span("abelian_eval.qis"):
                verdict = posetglue.is_quasi_iso_diagram(counit, field)
        four = (unit.source, unit.target, counit.source, counit.target)
        tables = {}
        for name, diagram in zip(CORNERS, four):
            with tracer.span("abelian_eval.cohomology"):
                tables[name] = posetglue.cohomology_table(diagram, field)
        records.append({"seed": tseed, "verdict": verdict, "tables": tables})
        corners.append(four)
    for r in records:
        r["tables"] = {k: _table_json(t) for k, t in r["tables"].items()}
    return records, (xi_plus, xi_minus), corners


def _counts(orders, formulas, composites, corners) -> dict:
    plus, minus = orders
    words = list(formulas) + list(composites)
    return {
        "poset_core.leq_pairs": len(plus.poset.leq) + len(minus.poset.leq),
        "poset_core.hasse_edges": sum(
            len(posetglue.hasse(o.poset).edges) for o in orders
        ),
        "formula_cat.value_entries": sum(
            len(F.at[y].xi.entries) for F in words for y in F.target.elements
        ),
        "abelian_eval.stalk_dim_total": sum(
            sum(d.stalk(x).dims.values()) for four in corners for d in four
            for x in d.base.elements
        ),
    }


def traced_job(tracer: Tracer, job: Job, untraced: Outcome, fields: dict, workdir: Path):
    """Run one job traced.

    Returns (window seconds, counts, problems).  The window is the traced
    certificate itself; probes and counting run after it.
    """
    problems = []
    state = {}

    def validate(doc):
        with tracer.span("gluing.validate"):
            state["g"] = posetglue.gluing_from_json(doc)
        return state["g"]

    def certify(g, **kw):
        with tracer.span("trace.cert"):
            state["rebuilt"] = _rebuild(tracer, g, job, kw["field"])
        return untraced.cert

    start = time.perf_counter()
    if job.via_cli:
        with _cli_calls(gluing_from_json=validate, verify_equivalence=certify):
            with tracer.span("cli.run"):
                code = _quiet_cli(job.argv())
        window = time.perf_counter() - start
        if code != untraced.code:
            problems.append(f"traced CLI exited {code}, untraced {untraced.code}")
    else:
        g = validate(job.doc)
        state["rebuilt"] = _rebuild(tracer, g, job, fields[job.field])
        window = time.perf_counter() - start
    counts = dict.fromkeys(COUNTS, 0)
    counts["certs"] = 1
    if job.reject_witness is not None:
        return window, counts, problems
    if "rebuilt" not in state:
        problems.append("cli.main made no verify_equivalence call the trace could see")
        return window, counts, problems

    records, formulas, corners = state["rebuilt"]
    if records != untraced.doc["trials"]:
        problems.append("rebuilt trials differ from the certificate's trial records")
    g = state["g"]
    with tracer.span("gluing.orders", probe=True):
        orders = (posetglue.build_plus(g), posetglue.build_minus(g))
    with tracer.span("formula_cat.compose", probe=True):
        composites = (
            posetglue.compose_formulas(formulas[0], formulas[1]),
            posetglue.compose_formulas(formulas[1], formulas[0]),
        )
    if not job.via_cli:
        path = workdir / f"probe-{job.number}.json"
        path.write_text(json.dumps(job.doc))
        argv = dataclasses.replace(job, path=str(path)).argv()
        with _cli_calls(
            gluing_from_json=validate,
            verify_equivalence=lambda g, **kw: untraced.cert,
        ):
            with tracer.span("cli.run", probe=True):
                code = _quiet_cli(argv)
        if code != 0:
            problems.append(f"CLI probe exited {code}")
    counts.update(_counts(orders, formulas, composites, corners))
    counts["trials"] = len(records)
    return window, counts, problems


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def layer_totals(tracer: Tracer, first: int):
    """Self seconds per layer over the spans from index ``first`` on, and
    their sum over spans outside probes.

    Spans inside a probe count only towards the probe's own self time, and
    spans that are not layers (the stand-in certificate call) count nowhere.
    """
    totals = dict.fromkeys(LAYERS, 0.0)
    accounted = 0.0
    for index, seconds in tracer.self_times(first).items():
        s = tracer.spans[index]
        if s["name"] in totals and s["probe"] != "inside":
            totals[s["name"]] += seconds
            if s["probe"] == "no":
                accounted += seconds
    return totals, accounted
