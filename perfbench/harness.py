"""Runs one workload: reference pass, fixtures, timed passes, optional spans.

Imported by ``run.py`` once ``src/`` is on the import path.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
import tracemalloc
from dataclasses import asdict

import reference as R
import spans as S
import workloads as W
from glpsim import analytics, cli, community, ensemble, errors, hitting, process

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_SEED = 1
MODULES = {m.__name__.split(".")[-1]: m for m in
           (analytics, cli, community, ensemble, errors, hitting, process)}


class Tally:
    """Operations attempted and failed in one workload run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        """One failed operation if ``problems`` is not empty."""
        self.failed += bool(problems)
        self.problems.extend(f"{what}: {why}" for why in problems)


def run_op(op, tally: Tally):
    """Run one operation; returns its (wall, CPU) seconds and its output, or
    None if it raised."""
    tally.attempted += 1
    t0, c0 = time.perf_counter(), R.cpu_seconds()
    try:
        out, raised = op.call(), None
    except Exception as exc:  # noqa: BLE001 (every failure is counted, not fatal)
        out, raised = None, exc
    seconds = (time.perf_counter() - t0, R.cpu_seconds() - c0)
    if raised is not None:
        tally.record(op.kind, [f"{type(raised).__name__}: {raised}"])
        return seconds, None
    try:
        problems = op.check(out)
    except Exception as exc:  # noqa: BLE001 (a check that cannot run is a failure)
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    tally.record(op.kind, problems)
    return seconds, out


def run_pass(workload, seed: int, k: int, workdir: str, tally: Tally,
             reference: list[float] | None = None) -> dict:
    """One pass; returns op kind -> [work, wall seconds, CPU seconds, CPU in
    reference-kernel units], each summed over the pass.

    With a ``reference`` list (which must hold the kernel's last timing), the
    kernel is timed again after every operation, and each operation's CPU
    time is divided by the mean of the kernel timings on either side of it.
    Without one, the last entry reads 0.
    """
    ops = workload.build(W.pass_seed(seed, k), workdir)
    gc.collect()
    per_kind: dict[str, list[float]] = {}
    for op in ops:
        (wall, cpu), _ = run_op(op, tally)
        in_ref = 0.0
        if reference is not None:
            reference.append(R.timed(workload.dram_bound))
            in_ref = 2 * cpu / (reference[-2] + reference[-1])
        sums = per_kind.setdefault(op.kind, [0.0, 0.0, 0.0, 0.0])
        for i, v in enumerate((op.work, wall, cpu, in_ref)):
            sums[i] += v
    return per_kind


def reference_pass(name: str, workload, workdir: str, tally: Tally) -> dict:
    """Pass 0 at the reference seed, untimed; returns the output digests,
    each checked against ``digests.json``."""
    with open(os.path.join(HERE, "digests.json")) as fh:
        expected = json.load(fh).get(name, {})
    digests: dict[str, str] = {}
    for op in workload.build(W.pass_seed(REFERENCE_SEED, 0), workdir):
        _, out = run_op(op, tally)
        if out is None:
            continue
        got = op.digest(out)
        del out
        digests.update(got)
        tally.record(f"{op.kind} at reference seed {REFERENCE_SEED}", [
            f"output {key} differs from the recorded digest"
            for key in sorted(got) if expected.get(key) != got[key]
        ])
    tally.record(f"reference seed {REFERENCE_SEED}", [
        f"output {key} was not produced" for key in sorted(set(expected) - set(digests))
    ])
    return digests


def generator_peak(steps: int, seed: int) -> int:
    """Traced-memory peak, in bytes, of one ``process.run`` of ``steps`` steps.

    numpy reports its buffers to tracemalloc.  Only this call is traced:
    tracing a whole pass slows Python-object-heavy operations tenfold.
    """
    tracemalloc.start()
    try:
        process.run(process.ProcessParams(p=W.P, steps=steps, seed=seed))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    """All passes of one workload run.

    Returns the metric values, the tally, note lines for stdout, the
    reference digests, the per-pass samples and the spans (traced runs).
    """
    workload = W.WORKLOADS[name]
    tally = Tally()
    notes: list[str] = []
    digests = reference_pass(name, workload, workdir, tally)
    peak = generator_peak(workload.largest_run_steps, W.pass_seed(seed, 0))

    run_op(W.Op("fixtures", lambda: W.fixture_problems(seed, workdir), list, dict), tally)

    passes: list[dict] = []
    tracer = S.Tracer(MODULES) if traced else None
    traced_s: list[float] = []
    # Untraced runs time the reference kernel before the first operation and
    # after every operation, so that it follows the machine's speed.
    reference: list[float] = []
    if tracer is None:
        R.timed(workload.dram_bound)  # untimed: the first call pays for set-up
        reference.append(R.timed(workload.dram_bound))
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        k = len(passes)
        if tracer is None:
            passes.append(run_pass(workload, seed, k, workdir, tally, reference))
            continue
        passes.append(run_pass(workload, seed, k, workdir, tally))
        tracer.run_id = f"{name}-seed{seed}-pass{k}"
        tracer.install()
        try:
            per_kind = run_pass(workload, seed, k, workdir, tally)
        finally:
            tracer.restore()
        traced_s.append(sum(v[1] for v in per_kind.values()))

    kinds = {kind: [p[kind] for p in passes] for kind in passes[0]}
    for metric, (kind, how) in workload.named.items():
        vals = [v[0] / v[1] if how == "rate" else v[1] for v in kinds[kind]]
        q1, med, q3 = quartiles(vals)
        unit = "1/s" if how == "rate" else "s"
        notes.append(f"{metric} = {med:.6g} {unit} (wall time, median of {len(vals)} "
                     f"passes, quartiles {q1:.6g}..{q3:.6g})")
    values = {"peak_bytes_per_step": peak / workload.largest_run_steps}
    if tracer is None:
        cpu = [sum(v[2] for v in p.values()) for p in passes]
        ratios = [sum(v[3] for v in p.values()) for p in passes]
        values["job_ref"] = statistics.median(ratios)
        for label, vals, unit in (("job_ref", ratios, "ref"), ("job_cpu_s", cpu, "s"),
                                  ("reference_cpu_s", reference, "s")):
            q1, med, q3 = quartiles(vals)
            notes.append(f"{label} = {med:.6g} {unit} (median of {len(vals)}, "
                         f"quartiles {q1:.6g}..{q3:.6g})")
    notes.append(f"peak_bytes_per_step = {values['peak_bytes_per_step']:.6g} B/step: "
                 f"{peak} B traced peak of process.run / {workload.largest_run_steps} steps")

    spans = []
    if tracer is not None:
        untraced_s = [sum(v[1] for v in p.values()) for p in passes]
        n = len(traced_s)
        values.update(S.layer_metrics(tracer.spans, n))
        values["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(traced_s, untraced_s))
        values["trace.spans"] = len(tracer.spans) / n
        glp_errors = tracer.glp_errors(errors.GlpError)
        values["errors.glp_error.count"] = len(glp_errors) / n
        notes.append(f"trace: {n} traced passes; overhead {values['trace.overhead_s']:.4f} s "
                     f"per pass (traced minus untraced op seconds, median over pairs); "
                     f"GlpError classes raised: {sorted(glp_errors) or 'none'}")
        spans = [asdict(s) for s in tracer.spans]
    return {
        "values": values,
        "tally": tally,
        "notes": notes,
        "digests": digests,
        "passes": passes,
        "reference_cpu_s": reference,
        "spans": spans,
    }
