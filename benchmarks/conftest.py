"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark module regenerates one of the paper's figures or worked
examples, or measures an engine layer against its Python oracle (the
README's *Benchmarks* section lists them).  Besides the pytest-benchmark
timing table, each module writes a small plain-text report with the
paper-vs-measured comparison into ``benchmark_reports/`` at the repository
root.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from pathlib import Path

import pytest

REPORT_DIR = Path(__file__).resolve().parent.parent / "benchmark_reports"

# Benchmarks scale with this factor; raise it (e.g. REPRO_BENCH_SCALE=4) to run
# sweeps closer to the paper's sizes on a bigger machine.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(value: int) -> int:
    """Scale a workload size by the REPRO_BENCH_SCALE environment variable."""
    return max(1, int(value * SCALE))


def median_seconds(fn, *, repeats: int = 3, warmup: int = 1) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` timed runs.

    The shared timing policy of the ablation harnesses that time one side
    at a time (``bench_engine``, ``bench_spectral``, ...): a change to
    warmup or repeat counts here changes all of them together.
    """
    for _ in range(warmup):
        fn()
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    timings.sort()
    return timings[len(timings) // 2]


#: Timed rounds of :func:`alternating_speedup`.
SPEEDUP_ROUNDS = 5


def alternating_speedup(oracle_fn, engine_fn) -> dict:
    """Time the oracle against the engine in alternating rounds.

    Each round times both sides back to back, and the side that goes first
    alternates, so a change of host speed during a run reaches both sides
    of a round alike.  The speed-up is the median of the per-round ratios.
    The caller runs each side once, untimed, before (its oracle
    cross-check), so no round pays a cold start.
    """
    oracle_times: list[float] = []
    engine_times: list[float] = []
    for index in range(SPEEDUP_ROUNDS):
        sides = [(oracle_times, oracle_fn), (engine_times, engine_fn)]
        if index % 2:
            sides.reverse()
        for times, fn in sides:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    ratios = [o / max(e, 1e-12) for o, e in zip(oracle_times, engine_times)]
    return {
        "python_s": statistics.median(oracle_times),
        "vectorized_s": statistics.median(engine_times),
        "round_speedups": ratios,
        "speedup": statistics.median(ratios),
    }


@pytest.fixture(scope="module", autouse=True)
def isolated_engine_state():
    """Isolate the engine's per-graph caches between benchmark modules.

    Benchmark modules hold large graphs in module-scoped fixtures; via the
    dispatch cache each of those graphs also pins its compiled artifact and
    kernels.  When several benchmark modules run in one pytest process
    (``pytest benchmarks/``) the accumulated artifacts inflate the heap and
    perturb the GC enough to skew the pure-Python timing sweeps — the
    quick-mode linearity assert of ``bench_fig5_scaling.py`` was flaky when
    co-run with ``bench_engine.py`` for exactly this reason.  Dropping the
    cache and collecting garbage at both module boundaries restores the
    per-module timing baseline without relying on CI step separation.
    """
    from repro.engine.dispatch import _CACHE

    _CACHE.clear()
    gc.collect()
    yield
    _CACHE.clear()
    gc.collect()


@pytest.fixture(scope="session")
def report_dir() -> Path:
    """Directory collecting the plain-text reproduction reports."""
    REPORT_DIR.mkdir(exist_ok=True)
    return REPORT_DIR


def write_report(report_dir: Path, name: str, lines: list[str]) -> Path:
    """Write (and echo) a reproduction report."""
    path = report_dir / name
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    print(f"\n--- {name} ---\n{text}")
    return path


def write_json_report(report_dir: Path, name: str, payload: dict) -> Path:
    """Write (and echo) a machine-readable JSON report (CI uploads these)."""
    path = report_dir / name
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n--- {name} ---\n{text}")
    return path
