"""glpsim benchmark: runs one workload and prints its result as the last line.

    python3 perfbench/run.py --workload large-run --seed 1 --seconds 30 --trace 0

Run it from the repository root: the program under test is ``src/glpsim`` of
that checkout, imported into this process.  ``--workload all`` runs the
three workloads one after another, each printing its own result line.

Each run of a workload:

1. (``--trace 0`` only) times ``setup_s``: the CPU time a fresh interpreter
   spends until glpsim is imported and a 1-step process has run, once untimed
   so that caches fill and then ``SETUP_SAMPLES`` times.  Each start is
   divided by the reference kernel's CPU time in the same child; the median
   ratio times the kernel's nominal time ``reference.NOMINAL_S`` is reported;
2. runs one untimed pass at the reference seed, whose outputs must match
   ``perfbench/digests.json``, and one untimed ``process.run`` under
   tracemalloc, whose peak gives ``peak_bytes_per_step``;
3. checks invariants on small fixtures built from ``--seed``;
4. repeats passes at seeds derived from ``--seed`` until ``--seconds`` have
   elapsed.  With ``--trace 0`` these untraced passes give the end-to-end
   metrics: the reference kernel (``reference.py``) is timed before the
   first operation and after each operation, and ``job_ref`` is the median
   over passes of the sum of each operation's CPU time divided by the mean
   of the kernel times around it.
   With ``--trace 1`` each untraced pass is followed by the same pass with
   span recorders installed (``spans.py``); the spans give the per-layer
   metrics, and traced minus untraced time is the overhead.

An exception, a ``glp`` exit code 2 or a broken check is a failed operation:
it makes ``correct`` false and the exit code 1.  Exit code 1 from
``glp stats --c1`` and ``glp hitting`` is a statistical verdict, i.e. output.
The benchmark changes nothing machine-wide.  Details: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

# One thread per library: on a 2-core VM a thread pool would measure the
# scheduler, and the CPU-time metrics count every thread of the process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("large-run", "replica-sweep", "cli-pipeline")

SETUP_SAMPLES = 5
# The child prints its own CPU time, counted from its start, once glpsim is
# imported and a 1-step run is done; then the CPU time of a second run of the
# reference kernel (the first pays for the kernel's own set-up).  CPU time
# leaves out the time the host gives the VM's cores to other tenants, and the
# child's exit; the kernel, timed in the same process moments later, takes
# out how fast the cores were running.
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); from glpsim import process; "
    "process.run(process.ProcessParams(p=0.5, steps=1, seed=0)); import time; "
    "setup = time.process_time(); sys.path.insert(0, {here!r}); import reference; "
    "reference.timed(False); print(setup, reference.timed(False))"
)


def measure_setup() -> list[tuple[float, float]]:
    """(set-up CPU seconds, kernel CPU seconds) of each timed start."""
    code = SETUP_CODE.format(src=SRC, here=os.path.dirname(os.path.abspath(__file__)))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                              capture_output=True, text=True)
        if i:
            setup, kernel = map(float, done.stdout.split()[-2:])
            samples.append((setup, kernel))
    return samples


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _field(text: str, key: str) -> str | None:
    return next((line.split(":", 1)[1].strip() for line in text.splitlines()
                 if line.startswith(key)), None)


def _git_revision() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    rev = _read(os.path.join(ROOT, ".git", ref)).strip()
    if rev:
        return rev
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    """Machine and library record; read-only look at /proc and /sys."""
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if not index.startswith("index"):
            continue
        d = os.path.join(base, index)
        level, kind = _read(d + "/level").strip(), _read(d + "/type").strip()
        caches[f"L{level} {kind}"] = _read(d + "/size").strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _field(_read("/proc/cpuinfo"), "model name") or platform.processor(),
        "caches": caches,
        "ram": _field(_read("/proc/meminfo"), "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "seed": seed,
        "machine_wide_changes": "none: no cache drops, no system-wide tracing, "
                                "no huge-page or cgroup changes",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must lie in [0, 2**40)")
    if not os.path.isfile(os.path.join(SRC, "glpsim", "__init__.py")):
        print(f"error: no glpsim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    setup = None if args.trace else measure_setup()
    sys.path.insert(0, SRC)
    import glpsim
    import harness
    import reference as R

    if os.path.dirname(os.path.abspath(glpsim.__file__)) != os.path.join(SRC, "glpsim"):
        print(f"error: imported glpsim from {glpsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    group = "per_layer" if args.trace else "end_to_end"
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    ok = True
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            run = harness.run_workload(name, args.seed, args.seconds, bool(args.trace),
                                       workdir)
            values, tally = run["values"], run["tally"]
            if setup is not None:
                values["setup_s"] = R.NOMINAL_S * statistics.median(s / k for s, k in setup)
                run["notes"].append("setup_s samples (set-up / kernel CPU seconds): "
                                    + ", ".join(f"{s:.4f}/{k:.4f}" for s, k in setup))
            result = {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                            for m in spec[group]},
            }
            stem = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}")
            with open(stem + ".json", "w") as fh:
                json.dump({"workload": name, "environment": env, "result": result,
                           "notes": run["notes"], "problems": tally.problems,
                           "reference_digests": run["digests"],
                           "passes": run["passes"],
                           "reference_cpu_s": run["reference_cpu_s"]},
                          fh, indent=1, sort_keys=True)
            if run["spans"]:
                with open(stem + "-spans.jsonl", "w") as fh:
                    fh.writelines(json.dumps(s) + "\n" for s in run["spans"])
            print(f"# {name}: environment " + json.dumps(env, sort_keys=True))
            for line in run["notes"]:
                print(f"# {name}: {line}")
            for why in tally.problems:
                print(f"# {name}: FAILED {why}")
            print(json.dumps(result), flush=True)
            ok = ok and result["correct"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
