"""prune-transformer: Shfl-BW pruning of the Transformer's GEMM weights.

Seeded normal weights of the real Transformer shapes are pruned in a cycle.
Each operation is one weight: ``prune_shflbw(W, 0.75, 64)``, then the
Shfl-BW kernel's ``prepare`` with the search's witness permutation, then one
width-64 ``run``.  This is the only workload where ``repro.core``'s pattern
search runs (balanced k-means is most of its time) and the only one that
exercises the ``repro.sparse`` Shfl-BW format.

Per-shape-cycle figures (``core.kmeans_ms`` and the like) are sums over the
four weights of one cycle, so they compare directly with the throughput.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.core.pruning
from repro.core import ShflBWPattern, prune_shflbw
from repro.kernels import make_kernel

from stats import Pass
from tracing import Tracer, instrument

SHAPES = ((1024, 1024), (3072, 1024), (4096, 1024), (1024, 4096))
SPARSITY = 0.75
VECTOR_SIZE = 64
WIDTH = 64
#: ``run`` must equal the dense product of the pruned weight to this
#: tolerance (float64, different summation order).
RTOL = ATOL = 1e-9


def tag(shape: tuple[int, int]) -> str:
    return f"{shape[0]}x{shape[1]}"


@dataclass
class Pruning:
    """The seeded weights and activations, and the retained fractions seen."""

    weights: list[np.ndarray]
    activations: list[np.ndarray]
    kernel: object
    retained: dict[str, float]


def start(seed: int, workdir: Path, tracer: Tracer) -> Pruning:
    rng = np.random.default_rng(seed)
    weights = [rng.normal(size=shape) for shape in SHAPES]
    activations = [rng.normal(size=(shape[1], WIDTH)) for shape in SHAPES]
    state = Pruning(weights, activations, make_kernel("shfl-bw", vector_size=VECTOR_SIZE), {})
    # The discarded warm-up operation.
    prune_shflbw(weights[0], SPARSITY, VECTOR_SIZE)
    return state


def stop(state: Pruning) -> None:
    pass


def check(state: Pruning, shape, pruned, result, output, activations) -> bool:
    """Exact per-group density, the Shfl-BW pattern, ``run`` and retention."""
    m, k = shape
    permuted = result.mask[result.row_indices].reshape(m // VECTOR_SIZE, VECTOR_SIZE, k)
    kept = max(1, round((1.0 - SPARSITY) * k))
    groups_ok = bool(
        np.all(permuted == permuted[:, :1, :]) and np.all(permuted[:, 0, :].sum(axis=1) == kept)
    )
    pattern_ok = ShflBWPattern(VECTOR_SIZE, 1.0 - SPARSITY).matches(result.mask, result.row_indices)
    run_ok = np.allclose(output, pruned @ activations, rtol=RTOL, atol=ATOL)
    first = state.retained.setdefault(tag(shape), result.retained_fraction)
    return groups_ok and pattern_ok and run_ok and first == result.retained_fraction


def measure(state: Pruning, seconds: float, tracer: Tracer) -> Pass:
    """Whole shape cycles until ``seconds`` have passed; checks are not timed."""
    latencies: list[float] = []
    failed = 0
    begin = time.monotonic()
    while not latencies or time.monotonic() - begin < seconds:
        for shape, weight, x in zip(SHAPES, state.weights, state.activations, strict=True):
            with tracer.span(f"prune.op.{tag(shape)}"):
                began = time.monotonic()
                with tracer.span("core.prune_shflbw"):
                    pruned, result = prune_shflbw(weight, SPARSITY, VECTOR_SIZE)
                with tracer.span("sparse.prepare"):
                    prepared = state.kernel.prepare(pruned, row_indices=result.row_indices)
                with tracer.span("sparse.run"):
                    output = state.kernel.run(prepared, x)
                latencies.append(time.monotonic() - began)
            failed += not check(state, shape, pruned, result, output, x)
    return Pass(
        latencies_s=latencies,
        throughput_per_s=len(latencies) / sum(latencies),
        attempted=len(latencies),
        failed=failed,
    )


#: Public functions the traced pass wraps: (owner, attribute, span name).
TRACED_CALLS = (
    (repro.core.pruning, "search_shflbw_pattern", "core.search"),
    (repro.core.pruning, "balanced_kmeans", "core.kmeans"),
    (repro.core.pruning, "vector_wise_mask", "core.vector_wise_mask"),
)


def traced_measure(state: Pruning, seconds: float, tracer: Tracer) -> Pass:
    """``measure`` with the pattern search and its stages wrapped."""
    with instrument(tracer, TRACED_CALLS):
        result = measure(state, seconds, tracer)
    cycles = len(result.latencies_s) // len(SHAPES)

    def per_cycle_ms(name: str) -> float:
        return sum(tracer.durations(name)) / cycles * 1e3

    for shape in SHAPES:
        searches = tracer.totals_within("core.search", f"prune.op.{tag(shape)}")
        result.layer[f"core.search_ms.{tag(shape)}"] = (statistics.median(searches) * 1e3, "ms")
        result.layer[f"core.retained_fraction.{tag(shape)}"] = (
            state.retained[tag(shape)],
            "fraction",
        )
    result.layer.update(
        {
            "core.kmeans_ms": (per_cycle_ms("core.kmeans"), "ms"),
            "core.vector_wise_mask_ms": (per_cycle_ms("core.vector_wise_mask"), "ms"),
            "sparse.prepare_ms": (per_cycle_ms("sparse.prepare"), "ms"),
            "sparse.run_ms": (per_cycle_ms("sparse.run"), "ms"),
        }
    )
    return result


def probe(seed: int, workdir: Path, tracer: Tracer) -> dict[str, tuple[float, str]]:
    """One traced shape cycle, for the traced runs of the other workloads."""
    state = start(seed, workdir, Tracer(False))
    result = traced_measure(state, 0.0, tracer)
    if result.failed:
        raise RuntimeError(f"pruning probe: {result.failed} weights failed their checks")
    return result.layer
