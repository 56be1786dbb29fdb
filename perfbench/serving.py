"""serve-decode: the micro-batching service under live traffic.

The workload serves ``Autotuner().plan("transformer", "V100", 0.75)`` (the
paper's headline point) through ``InferenceService(plan, workers=1,
deadline_s=0.020)`` with the default weight seed and queue bound.  One
generator thread builds each request with ``PredictRequest.from_array`` at
send time from activations generated from the workload seed.

It is an open loop: seeded Poisson arrivals of single-column requests at
5 req/s, spread evenly over the four GEMM layers, each timed from when it
was due.  At about a quarter of the worker's capacity every batch has width
1, so latency is the per-call path (weight digest, dispatch, pipe, kernel
``run``) and coalescing is bypassed.  Its throughput is the offered rate,
set by the seeded schedule; it falls only if the service cannot keep up, so
it is a saturation check, not a speed figure.

Coalescing shows only under sustained load, so every traced run adds a
closed loop keeping 128 single-column requests outstanding (below the
256-column queue bound, so nothing is rejected) for a few seconds, and
reports its batch widths beside the planned width.

The deadline is pinned because the default one is calibrated from a single
timed batch per layer at ``start()`` and swings by 2x between starts; the
traced run records that spread from default-deadline services instead.
"""

from __future__ import annotations

import pickle
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.kernels import base as kernel_base
from repro.serve import (
    DEFAULT_WEIGHT_SEED,
    InferenceService,
    PredictRequest,
    ServeBatch,
    ServiceOverloadedError,
    derive_weights,
    execute_serve_batches,
)
from repro.tune import Autotuner
from repro.tune.planned import PlannedModel

from stats import Pass, arrival_offsets, balanced_stream, open_loop
from tracing import Tracer, instrument

LAYERS = ("attn_qkv", "attn_out", "ffn1", "ffn2")
RATE_PER_S = 5.0
OUTSTANDING = 128
DEADLINE_S = 0.020
#: Responses must equal ``W @ x`` to this tolerance: float64 products whose
#: summation order differs between the kernel and numpy's dense GEMM.
RTOL = ATOL = 1e-9
#: Seconds of the sustained-load phase of the serving probe.
SUSTAINED_S = 5.0
#: Starts of a default-deadline service whose calibrated deadlines are kept.
CALIBRATION_STARTS = 3
#: Requests of the short open-loop burst that traced runs of the other
#: workloads send to fill the serving-traffic metrics.
PROBE_REQUESTS = 10


@dataclass(eq=False)
class Request:
    """One sent request, its input and what came back."""

    layer: str
    x: np.ndarray
    due: float | None = None
    pending: object = None
    error: str | None = None

    @property
    def completed_at(self) -> float:
        return self.pending.submitted_at + self.pending.response.latency_s


@dataclass
class Serving:
    """The service and everything its checks need."""

    seed: int
    plan: object
    weights: dict[str, np.ndarray]
    service: InferenceService

    @property
    def rows(self) -> dict[str, int]:
        return {layer: self.weights[layer].shape[1] for layer in LAYERS}


def start(seed: int, workdir: Path, tracer: Tracer) -> Serving:
    """Plan, derive the reference weights, start the pinned service."""
    with tracer.span("setup.plan"):
        plan = Autotuner().plan("transformer", "V100", 0.75)
    weights = derive_weights(plan, DEFAULT_WEIGHT_SEED)
    with tracer.span("setup.service_start"):
        service = InferenceService(plan, workers=1, deadline_s=DEADLINE_S).start()
    state = Serving(seed, plan, weights, service)
    # The discarded warm-up operation.
    layer = LAYERS[0]
    service.predict(PredictRequest.from_array(layer, np.ones((state.rows[layer], 1))))
    return state


def stop(state: Serving) -> None:
    state.service.stop(timeout=30.0)


def _send(state: Serving, request: Request, tracer: Tracer, rid: str) -> None:
    with tracer.span("serve.request_build", request_id=rid):
        built = PredictRequest.from_array(request.layer, request.x, request_id=rid)
    try:
        with tracer.span("serve.submit", request_id=rid):
            request.pending = state.service.submit(built)
    except ServiceOverloadedError as exc:
        request.error = f"rejected: {exc}"


def _await(request: Request) -> None:
    if request.pending is None:
        return
    response = request.pending.result()
    if not response.ok:
        request.error = response.error


def open_loop_pass(state: Serving, count: int, tracer: Tracer) -> tuple[list[Request], list[float]]:
    """Send ``count`` requests on the seeded Poisson schedule; wait for all."""
    rng = np.random.default_rng([state.seed, 1])
    layers = balanced_stream(state.seed, LAYERS)
    requests = []
    for _ in range(count):
        layer = next(layers)
        requests.append(Request(layer, rng.normal(size=(state.rows[layer], 1))))

    def send(index: int, due: float) -> None:
        requests[index].due = due
        _send(state, requests[index], tracer, f"r{index}")

    _, lateness = open_loop(arrival_offsets(state.seed, RATE_PER_S, count), send)
    for request in requests:
        _await(request)
    return requests, lateness


def closed_loop_pass(state: Serving, seconds: float, tracer: Tracer) -> list[Request]:
    """Keep ``OUTSTANDING`` requests in flight for ``seconds``, then drain."""
    rng = np.random.default_rng([state.seed, 2])
    layers = balanced_stream(state.seed, LAYERS)
    sent: list[Request] = []

    def submit() -> Request:
        layer = next(layers)
        request = Request(layer, rng.normal(size=(state.rows[layer], 1)))
        _send(state, request, tracer, f"s{len(sent)}")
        sent.append(request)
        return request

    end = time.monotonic() + seconds
    outstanding = [submit() for _ in range(OUTSTANDING)]
    while time.monotonic() < end and outstanding:
        _await(outstanding[0])
        finished = [r for r in outstanding if r.pending is None or r.pending.response is not None]
        outstanding = [r for r in outstanding if r.pending is not None and r.pending.response is None]
        for request in finished:
            _await(request)
            if time.monotonic() < end:
                outstanding.append(submit())
    for request in outstanding:
        _await(request)
    return sent


def measure(state: Serving, seconds: float, tracer: Tracer) -> Pass:
    """One open-loop pass; timings exclude the output checks."""
    count = max(1, round(RATE_PER_S * seconds))
    requests, lateness = open_loop_pass(state, count, tracer)
    served = [r for r in requests if r.error is None]
    latencies = [r.completed_at - r.due for r in served]
    first = min(r.due for r in requests)
    failed = failures(state, requests)
    result = Pass(
        latencies_s=latencies,
        throughput_per_s=len(served) / (max(r.completed_at for r in served) - first),
        attempted=len(requests),
        failed=failed,
    )
    if tracer.enabled:
        result.layer = traffic_metrics(state, requests, lateness, tracer)
    return result


#: ``measure`` records its spans itself when the tracer is on.
traced_measure = measure


def failures(state: Serving, requests: list[Request]) -> int:
    """Requests whose reply is not ``W @ x``: wrong outputs, error replies
    and rejections."""
    return check(state, requests) + sum(r.error is not None for r in requests)


def check(state: Serving, requests: list[Request]) -> int:
    """Count served responses that differ from ``W @ x`` for their layer."""
    failures = 0
    for layer in LAYERS:
        served = [r for r in requests if r.layer == layer and r.error is None]
        if not served:
            continue
        inputs = np.concatenate([r.x for r in served], axis=1)
        expected = state.weights[layer] @ inputs
        for column, request in enumerate(served):
            output = request.pending.response.output
            if not np.allclose(output[:, 0], expected[:, column], rtol=RTOL, atol=ATOL):
                failures += 1
    return failures


def _ms_median(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def traffic_metrics(
    state: Serving,
    requests: list[Request],
    lateness: list[float],
    tracer: Tracer,
) -> dict[str, tuple[float, str]]:
    """Per-layer serving numbers of one traced open-loop pass."""
    service = state.service
    metrics = {
        "serve.request_build_ms": (_ms_median(tracer.durations("serve.request_build")), "ms"),
        "serve.submit_ms": (_ms_median(tracer.durations("serve.submit")), "ms"),
        "serve.generator_lag_ms.p50": (_ms_median(lateness or [0.0]), "ms"),
        "serve.generator_lag_ms.max": (max(lateness or [0.0]) * 1e3, "ms"),
    }
    executed = service.recorded_times()
    for layer in LAYERS:
        served = [
            r.pending.response.latency_s
            for r in requests
            if r.layer == layer and r.error is None
        ]
        metrics[f"serve.worker_exec_ms.{layer}"] = (executed[layer] * 1e3, "ms")
        metrics[f"serve.wait_ms.{layer}"] = (
            (statistics.median(served) - executed[layer]) * 1e3,
            "ms",
        )
    for request in requests:
        if request.pending is not None and request.pending.response is not None:
            tracer.add(
                "serve.request",
                request.pending.submitted_at,
                request.completed_at,
                request_id=request.pending.request.request_id,
            )
    return metrics


def sustained_metrics(state: Serving) -> dict[str, tuple[float, str]]:
    """Batch widths of a ``SUSTAINED_S`` closed loop, beside the planned width."""
    service = state.service
    before = len(service.stats.batch_widths)
    _check_probe(state, closed_loop_pass(state, SUSTAINED_S, Tracer(False)))
    widths = service.stats.batch_widths[before:]
    mean_width = statistics.mean(widths)
    return {
        "serve.batch_width": (mean_width, "columns"),
        "serve.planned_width": (
            statistics.mean(w.width for w in service.windows.values()),
            "columns",
        ),
        "serve.batches": (float(len(widths)), "count"),
        "serve.ipc_bytes": (ipc_bytes(state, mean_width), "B_computed"),
    }


def ipc_bytes(state: Serving, width: float) -> float:
    """Pickled ``(ServeBatch, fault)`` pipe message at a mean batch width.

    Computed, not observed: the message size is affine in the number of
    single-column requests, so it is interpolated between widths 1 and 2
    and averaged over the four layers.
    """
    rng = np.random.default_rng([state.seed, 3])
    sizes = []
    for layer in LAYERS:
        requests = tuple(
            PredictRequest.from_array(layer, rng.normal(size=(state.rows[layer], 1)))
            for _ in range(2)
        )
        one, two = (
            len(pickle.dumps((ServeBatch(state.plan, DEFAULT_WEIGHT_SEED, layer, requests[:n]), None)))
            for n in (1, 2)
        )
        sizes.append(one + (two - one) * (width - 1.0))
    return statistics.mean(sizes)


def _check_probe(state: Serving, requests: list[Request]) -> None:
    failed = failures(state, requests)
    if failed:
        raise RuntimeError(f"serving probe: {failed} of {len(requests)} responses are wrong")


def probe(
    seed: int, workdir: Path, tracer: Tracer, *, traffic_measured: bool
) -> dict[str, tuple[float, str]]:
    """Serving-layer probe of a traced run.

    On a fresh pinned service it runs the sustained-load phase, and, unless
    the workload's traced pass already measured open-loop traffic, first a
    short open-loop burst, so the traffic metrics exist in every traced run.
    Then it times the weight digest, the kernel ``run`` at widths 1 and 64
    and one width-1 ``execute_serve_batches`` per layer, and records the
    deadlines default-deadline services calibrate.
    """
    metrics: dict[str, tuple[float, str]] = {}
    with tracer.span("probe.serving"):
        state = start(seed, workdir, tracer)
        try:
            if not traffic_measured:
                requests, lateness = open_loop_pass(state, PROBE_REQUESTS, tracer)
                _check_probe(state, requests)
                metrics.update(traffic_metrics(state, requests, lateness, tracer))
            metrics.update(sustained_metrics(state))
        finally:
            stop(state)
    metrics.update(kernel_metrics(state, tracer))
    metrics.update(calibrated_deadlines(state, tracer))
    return metrics


def _median_time(function, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        function()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def kernel_metrics(state: Serving, tracer: Tracer) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    model = PlannedModel(state.plan)
    rng = np.random.default_rng([state.seed, 4])
    for layer in LAYERS:
        kernel = model.kernel_for(layer)
        weight = state.weights[layer]
        prepared = kernel.prepare(weight)
        x1 = rng.normal(size=(state.rows[layer], 1))
        x64 = rng.normal(size=(state.rows[layer], 64))
        with tracer.span(f"probe.kernels.{layer}"):
            key = _median_time(lambda: kernel_base.prepare_cache_key(weight), 3)
            run1 = _median_time(lambda: kernel.run(prepared, x1), 5)
            run64 = _median_time(lambda: kernel.run(prepared, x64), 5)
        batch = ServeBatch(
            state.plan,
            DEFAULT_WEIGHT_SEED,
            layer,
            (PredictRequest.from_array(layer, x1),),
        )
        targets = [
            (kernel_base, "prepare_cache_key", "kernels.prepare_key"),
            (type(kernel), "run", "kernels.run"),
        ]
        with instrument(tracer, targets):
            for _ in range(3):
                with tracer.span(f"serve.execute.{layer}"):
                    execute_serve_batches([batch])
        metrics[f"kernels.prepare_key_ms.{layer}"] = (key * 1e3, "ms")
        metrics[f"kernels.run_ms.{layer}.w1"] = (run1 * 1e3, "ms")
        metrics[f"kernels.run_ms.{layer}.w64"] = (run64 * 1e3, "ms")
        metrics[f"serve.execute_ms.{layer}.w1"] = (
            _ms_median(tracer.durations(f"serve.execute.{layer}")),
            "ms",
        )
        metrics[f"serve.execute_self_ms.{layer}.w1"] = (
            _ms_median(tracer.self_durations(f"serve.execute.{layer}")),
            "ms",
        )
    return metrics


def calibrated_deadlines(state: Serving, tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Deadlines of default-deadline services, one set per start."""
    seen: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for _ in range(CALIBRATION_STARTS):
        with tracer.span("probe.calibrated_start"):
            service = InferenceService(state.plan).start()
            service.stop(timeout=30.0)
        for layer in LAYERS:
            seen[layer].append(service.windows[layer].deadline_s * 1e3)
    metrics = {}
    for layer, deadlines in seen.items():
        metrics[f"serve.calibrated_deadline_ms.{layer}.min"] = (min(deadlines), "ms")
        metrics[f"serve.calibrated_deadline_ms.{layer}.max"] = (max(deadlines), "ms")
    return metrics
