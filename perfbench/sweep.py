"""The paper-sweep probe: regenerate the paper's timing-model experiments.

One regeneration runs ``figure1``, ``figure6``, ``headline`` and
``autotune`` through ``run_experiment`` with a serial ``SweepRunner``, in
one of three cache states:

* ``nocache``: no cache directory, the command-line default;
* ``warm``: one ``BlobStore`` directory filled during set-up, so every cell
  is read;
* ``cold``: a fresh directory, so every cell is written and fsynced.

This is the only code that runs ``eval.runner``, ``gpu.simulate_batch``,
``tune.planner`` and ``eval.store``.  Every traced run probes it: one
no-cache plus warm cycle, then the cold regenerations, with the store,
hashing, planning and simulator wrapped.  It is not an end-to-end workload:
run for 20 s at a time on a shared two-core host, its regeneration rate
ranged from 6.9 to 12.5 per second over ten runs (quartile spread 0.31 of
the median), and a cold store's fsyncs made the median cold regeneration
swing from 215 to 351 ms between runs.  The grids are the paper's and take
nothing from the seed.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import repro.gpu.simulator
import repro.kernels.base
from repro.eval import BlobStore, RunConfig, SweepRunner, run_experiment
from repro.tune import Autotuner

from stats import Pass
from tracing import Tracer, instrument

EXPERIMENTS = ("figure1", "figure6", "headline", "autotune")
MEASURED = ("nocache", "warm")
STATES = ("nocache", "cold", "warm")
#: Cold regenerations a traced run adds after its measured cycles.
COLD_REGENERATIONS = 5


@dataclass
class Sweep:
    """Store directories and the reference reports every state must match."""

    workdir: Path
    warm_dir: Path
    reference: list[str]


def regenerate(runner: SweepRunner, tracer: Tracer) -> list[str]:
    """The four experiments' reports as JSON, in order."""
    reports = []
    for name in EXPERIMENTS:
        with tracer.span(f"eval.experiment.{name}"):
            reports.append(run_experiment(name, runner=runner).to_json())
    return reports


def start(seed: int, workdir: Path, tracer: Tracer) -> Sweep:
    """Fill the warm store; the discarded warm-up gives the reference."""
    workdir.mkdir(parents=True, exist_ok=True)
    warm_dir = Path(tempfile.mkdtemp(prefix="warm-", dir=workdir))
    regenerate(SweepRunner(cache_dir=warm_dir), tracer)
    reference = regenerate(SweepRunner(), tracer)
    return Sweep(workdir, warm_dir, reference)


def stop(state: Sweep) -> None:
    shutil.rmtree(state.warm_dir, ignore_errors=True)


def _directory_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def regenerate_in(
    state: Sweep, name: str, tracer: Tracer
) -> tuple[float, SweepRunner, bool, int]:
    """One timed regeneration in cache state ``name``.

    Returns the seconds it took, its runner (for the cache counts), whether
    the reports equal the reference, and the bytes a cold store received.
    """
    cold_dir = Path(tempfile.mkdtemp(prefix="cold-", dir=state.workdir)) if name == "cold" else None
    cache_dir = {"nocache": None, "cold": cold_dir, "warm": state.warm_dir}[name]
    runner = SweepRunner(cache_dir=cache_dir)
    with tracer.span(f"eval.regen.{name}"):
        began = time.monotonic()
        reports = regenerate(runner, tracer)
        elapsed = time.monotonic() - began
    written = 0
    if cold_dir is not None:
        written = _directory_bytes(cold_dir)
        shutil.rmtree(cold_dir)
    return elapsed, runner, reports == state.reference, written


def measure_cycle(state: Sweep, tracer: Tracer) -> Pass:
    """One no-cache and one warm regeneration; checks are not timed."""
    times, configs = [], []
    failed = 0
    for name in MEASURED:
        elapsed, runner, ok, _ = regenerate_in(state, name, tracer)
        failed += not ok
        times.append(elapsed)
        configs.append(runner.stats.total)
    layer = {f"eval.regen_ms.{name}": (t * 1e3, "ms") for name, t in zip(MEASURED, times)}
    layer["eval.configs"] = (statistics.median(configs), "count")
    layer["eval.hit_ratio.warm"] = (runner.stats.hit_rate, "fraction")
    return Pass(
        latencies_s=times,
        throughput_per_s=len(times) / sum(times),
        attempted=len(times),
        failed=failed,
        layer=layer,
    )


def measure_cold(state: Sweep, tracer: Tracer) -> Pass:
    """``COLD_REGENERATIONS`` regenerations, each into a fresh store."""
    times, ratios, written = [], [], []
    failed = 0
    for _ in range(COLD_REGENERATIONS):
        elapsed, runner, ok, bytes_written = regenerate_in(state, "cold", tracer)
        failed += not ok
        times.append(elapsed)
        ratios.append(runner.stats.hit_rate)
        written.append(bytes_written)
    return Pass(
        latencies_s=times,
        throughput_per_s=len(times) / sum(times),
        attempted=len(times),
        failed=failed,
        layer={
            "eval.regen_ms.cold": (statistics.median(times) * 1e3, "ms"),
            "eval.hit_ratio.cold": (statistics.median(ratios), "fraction"),
            "eval.store.bytes_written": (statistics.median(written), "B"),
        },
    )


#: Public functions the traced pass wraps: (owner, attribute, span name).
TRACED_CALLS = (
    (repro.gpu.simulator, "simulate_batch", "gpu.simulate_batch"),
    (repro.kernels.base, "simulate_batch", "gpu.simulate_batch"),
    (Autotuner, "plan", "tune.plan"),
    (RunConfig, "config_hash", "eval.config_hash"),
    (BlobStore, "flush", "eval.store.put"),
    (BlobStore, "get", "eval.store.get"),
)


def _per_regen_ms(tracer: Tracer, call: str, states: tuple[str, ...]) -> float:
    totals = []
    for name in states:
        totals.extend(tracer.totals_within(call, f"eval.regen.{name}"))
    return statistics.median(totals) * 1e3


def traced_measure(state: Sweep, tracer: Tracer) -> Pass:
    """A cycle and the cold regenerations, with the store, hashing, planning
    and simulator wrapped."""
    with instrument(tracer, TRACED_CALLS):
        result = measure_cycle(state, tracer)
        cold = measure_cold(state, tracer)
    result.attempted += cold.attempted
    result.failed += cold.failed
    result.layer.update(cold.layer)
    result.layer.update(
        {
            "eval.config_hash_ms": (_per_regen_ms(tracer, "eval.config_hash", STATES), "ms"),
            "gpu.simulate_batch_ms": (
                _per_regen_ms(tracer, "gpu.simulate_batch", ("nocache",)),
                "ms",
            ),
            "tune.plan_ms": (_per_regen_ms(tracer, "tune.plan", ("nocache",)), "ms"),
            "eval.store.put_ms": (_per_regen_ms(tracer, "eval.store.put", ("cold",)), "ms"),
            "eval.store.get_ms": (_per_regen_ms(tracer, "eval.store.get", ("warm",)), "ms"),
        }
    )
    return result


def probe(seed: int, workdir: Path, tracer: Tracer) -> dict[str, tuple[float, str]]:
    """One traced cycle and the cold regenerations."""
    state = start(seed, workdir, Tracer(False))
    try:
        result = traced_measure(state, tracer)
    finally:
        stop(state)
    if result.failed:
        raise RuntimeError(f"sweep probe: {result.failed} reports differ between cache states")
    return result.layer
