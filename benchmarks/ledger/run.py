"""Layer ledger: the canonical workloads, end to end and layer by layer.

Run one workload (each run is its own interpreter; inputs come from the seed
alone)::

    python3 benchmarks/ledger/run.py --workload fig5_batch --seed 1
    python3 benchmarks/ledger/run.py --workload fig5_batch --seed 1 --trace

The untraced run prints every end-to-end metric; the traced run wraps the
library's layer functions (see ``layers.py``), prints every per-layer metric
and writes ``benchmarks/ledger/out/ledger-<workload>.json``.  Both end with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

Two more modes drive fresh interpreters of this script::

    python3 benchmarks/ledger/run.py --repeat 5           # spread per metric
    python3 benchmarks/ledger/run.py --check-determinism  # op counts repeat

Each workload does a fixed amount of work (see ``workloads.py``).  The
operation metrics are latencies in units of a reference probe timed next to
each operation (see ``probe.py``); the raw wall-clock latencies are printed
as report lines.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
WORK_DIR = HERE / "_work"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(SRC))
try:
    import repro
except ImportError as exc:  # pragma: no cover - exercised by an incomplete checkout
    sys.exit(f"ledger: cannot import the library from {SRC}: {exc}")
if not Path(repro.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"ledger: repro resolved to {repro.__file__}, not under {SRC}")

import layers  # noqa: E402
import workloads  # noqa: E402
from probe import Probe  # noqa: E402
from spans import Tracer  # noqa: E402

_clock = time.perf_counter

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: End-to-end metrics: ``(name, unit)``; all lower-is-better.  ``probes``
#: is the unit of :class:`probe.Probe`'s time: each operation's latency is
#: divided by the probes timed on either side of it.
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_probes", "probes"),
    ("op_p90_probes", "probes"),
    ("peak_rss_mb", "MB"),
]


def run(name: str, seed: int, trace: bool) -> dict:
    """One workload in this process; prints the report and returns the result."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    workload = None
    setups: list[float] = []
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        tracer = Tracer()
        patches = layers.instrumentation(tracer) if trace else []
        with tracer.install(patches):
            for _ in range(SETUPS):
                tracer.phase = "setup"
                gc.collect()
                start = _clock()
                workload.setup()
                setups.append(_clock() - start)
            loop = workloads.Loop(tracer, Probe())
            workload.measure(loop)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = loop.latencies or [0.0]
    relative = loop.relative or [0.0]
    n = len(latencies)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "op_p50_probes": workloads.quantile(relative, 0.50),
        "op_p90_probes": workloads.quantile(relative, 0.90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    correct = loop.failed == 0 and loop.checks > 0

    print(f"workload {name} seed {seed} traced {int(trace)}")
    print(f"ops {len(loop.latencies)} attempted {loop.attempted} failed {loop.failed}"
          f" items {loop.items} measured_s {loop.wall_s:.3f}")
    print(f"answers_ok {str(correct).lower()} checks {loop.checks}"
          f" digest {loop.digest}")
    print(f"setups {len(setups)} min_s {min(setups):.6g} max_s {max(setups):.6g}")
    print(f"op_p90_probes has {n - 1 - int(0.9 * n)} of {n} operations beyond it")
    print(f"probe_ms median {1000 * statistics.median(loop.probes):.6g}"
          f" min {1000 * min(loop.probes):.6g} max {1000 * max(loop.probes):.6g}")
    print(f"op_p50_ms {1000 * workloads.quantile(latencies, 0.50):.6g}")
    print(f"op_p90_ms {1000 * workloads.quantile(latencies, 0.90):.6g}")
    print(f"op_mean_ms {1000 * statistics.fmean(latencies):.6g}")
    print(f"op_cpu_ms {1000 * loop.cpu_s / n:.6g}")
    print(f"op_p99_ms {1000 * workloads.quantile(latencies, 0.99):.6g}"
          f" ({n - 1 - int(0.99 * n)} of {n} beyond)")
    print(f"items_per_s {loop.items / max(1e-12, loop.wall_s):.6g}")
    for key, value in loop.notes.items():
        print(f"note {key} {value:.6g}")

    if trace:
        values = layers.per_layer(tracer, loop, setups)
        metrics = {m: {"value": values[m], "unit": u} for m, u, _ in layers.PER_LAYER}
        top = layers.top_layers(tracer, loop)
        _write_ledger(name, seed, tracer, loop, values, top)
        for row in top:
            print(f"top {row['layer']} self_share {row['self_share']:.4f}"
                  f" work {row['work']:.6g} ns_per_work {row['ns_per_work']:.4g}")
    else:
        metrics = {m: {"value": end_to_end[m], "unit": u} for m, u in END_TO_END}
    for key, metric in metrics.items():
        print(f"metric {key} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": correct,
        "attempted": int(loop.attempted),
        "failed": int(loop.failed),
        "metrics": metrics,
    }


def _write_ledger(name, seed, tracer, loop, values, top) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    ledger = {
        "workload": name,
        "seed": seed,
        "ops": loop.attempted,
        "measured_s": loop.wall_s,
        "spans": len(tracer.spans()),
        "per_layer": values,
        "top_layers": top,
        "phases": {
            phase: {"layers": tracer.layers(phase), "counts": tracer.counts(phase)}
            for phase in ("setup", "measure")
        },
    }
    path = OUT_DIR / f"ledger-{name}.json"
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    print(f"ledger {path}")


def _child(args: list[str]) -> dict:
    """Run this script in a fresh interpreter; its result line."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{args} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def repeat(names: list[str], runs: int, first_seed: int) -> int:
    """``runs`` seeds per workload, interleaved; median, quartiles and spread
    of every end-to-end metric and of each run's wall time (``run_s``)."""
    values: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    ok = True
    for seed in range(first_seed, first_seed + runs):
        for name in names:
            start = _clock()
            result = _child(["--workload", name, "--seed", str(seed)])
            values[name].setdefault("run_s", []).append(_clock() - start)
            ok &= result["correct"] and result["failed"] == 0
            for key, metric in result["metrics"].items():
                values[name].setdefault(key, []).append(metric["value"])
    summary = {}
    for name in names:
        for key, series in values[name].items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[f"{name}.{key}"] = {"median": median, "q1": q1, "q3": q3,
                                        "n": len(series), "spread": spread,
                                        "values": series}
            print(f"{name:14s} {key:16s} median {median:10.4f}  q1 {q1:10.4f}"
                  f"  q3 {q3:10.4f}  n {len(series)}  spread {spread:.3f}")
    print(json.dumps({"correct": ok, "summary": summary}))
    return 0 if ok else 1


def check_determinism(seed: int) -> int:
    """Two traced runs of the same work must report identical op counts."""
    ok = True
    for name in ("fig5_batch", "banded_ooc", "signed_stream"):
        passes = [
            _child(["--workload", name, "--seed", str(seed), "--trace", "1"])["metrics"]
            for _ in range(2)
        ]
        for key in layers.DETERMINISTIC:
            first, second = (p[key]["value"] for p in passes)
            same = first == second
            ok &= same
            print(f"{name:14s} {key:34s} {first:.6g} {second:.6g}"
                  f" {'same' if same else 'DIFFERENT'}")
    print("zipf_serving   excluded: its coalescing depends on the dispatcher's timing")
    print(json.dumps({"deterministic": ok}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for the benchmark interface; a run is a"
                        " fixed amount of work and does not depend on it")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=None, metavar="N")
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)
    if args.check_determinism:
        return check_determinism(args.seed)
    if args.repeat is not None:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        return repeat(names, args.repeat, args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
