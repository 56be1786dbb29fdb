"""The serving cell contract: array payloads, bytes-digest keys, prepared
handles on the hot path."""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import base as kernel_base
from repro.serve import (
    InferenceService,
    MicroBatcher,
    PredictRequest,
    ServeBatch,
    execute_serve_batches,
    planned_runtime,
)
from repro.serve import cells
from repro.serve.cells import _runtime_for
from repro.tune import Autotuner

from conftest import GEMM, LAYER, make_requests
from test_batcher import window
from test_serve_cli import BASE_ARGS, run_cli


class TestArrayPayload:
    def test_activations_are_a_read_only_private_copy(self):
        source = np.arange(6.0).reshape(3, 2)
        request = PredictRequest(LAYER, source)
        source[0, 0] = 99.0
        assert request.activations[0, 0] == 0.0
        assert request.activations.dtype == np.float64
        assert not request.activations.flags.writeable
        with pytest.raises(ValueError):
            request.activations[0, 0] = 1.0

    def test_to_array_does_not_copy(self):
        request = make_requests(1)[0]
        assert request.to_array() is request.activations

    def test_constructor_accepts_nested_sequences(self):
        request = PredictRequest(LAYER, ((1, 2), (3, 4)))
        assert request.rows == 2 and request.width == 2
        assert request.to_dict() == {
            "layer": LAYER,
            "activations": [[1.0, 2.0], [3.0, 4.0]],
        }

    @pytest.mark.parametrize("bad", [(), ((),), (1.0, 2.0), ((1.0,), (2.0, 3.0))])
    def test_constructor_rejects_non_matrices(self, bad):
        with pytest.raises(ValueError):
            PredictRequest(LAYER, bad)

    def test_read_only_after_pickle_round_trip(self):
        request = PredictRequest.from_array(
            LAYER, np.ones(4), request_id="r", deadline_s=1.5
        )
        restored = pickle.loads(pickle.dumps(request))
        assert not restored.activations.flags.writeable
        assert restored == request
        assert (restored.request_id, restored.deadline_s) == ("r", 1.5)


class TestEquality:
    def test_equal_payloads_are_equal_and_hash_alike(self):
        left = PredictRequest.from_array(LAYER, np.ones(4), request_id="a")
        right = PredictRequest.from_array(LAYER, np.ones(4), request_id="b")
        assert left == right
        assert hash(left) == hash(right)

    def test_signed_zeros_are_equal_and_hash_alike(self):
        positive = PredictRequest.from_array(LAYER, np.zeros(3))
        negative = PredictRequest.from_array(LAYER, -np.zeros(3))
        assert positive == negative
        assert hash(positive) == hash(negative)

    def test_layer_shape_and_values_all_count(self):
        base = PredictRequest.from_array(LAYER, np.ones(4))
        assert base != PredictRequest.from_array("other", np.ones(4))
        assert base != PredictRequest.from_array(LAYER, np.ones((2, 2)))
        assert base != PredictRequest.from_array(LAYER, np.arange(4.0))
        assert base != "not a request"

    def test_remove_from_a_queue_of_array_requests(self):
        """Removal is by identity, even among equal payloads."""
        batcher = MicroBatcher(window(width=8, deadline=100.0))
        twins = [
            PredictRequest.from_array(LAYER, np.ones(256), request_id=str(i))
            for i in range(3)
        ]
        other = make_requests(1)[0]
        for request in (*twins, other):
            batcher.push(request, now=0.0)
        assert batcher.remove(twins[1]) is True
        assert batcher.remove(twins[1]) is False
        (released,) = batcher.poll(now=200.0)
        assert [r.request_id for r in released] == ["0", "2", "0"]
        assert released[-1] is other


@st.composite
def _payload_and_index(draw):
    values = draw(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
        )
    )
    index = tuple(draw(st.integers(0, side - 1)) for side in values.shape)
    return values, index


class TestConfigHash:
    @settings(max_examples=60, deadline=None)
    @given(_payload_and_index())
    def test_one_flipped_value_changes_the_hash(self, plan, case):
        values, index = case
        flipped = values.copy()
        # One ulp toward zero, or up from a zero: never overflows.
        flipped[index] = np.nextafter(values[index], -np.inf if values[index] > 0 else np.inf)

        def key(array):
            request = PredictRequest(LAYER, array)
            return ServeBatch(plan, 2024, LAYER, (request,)).config_hash()

        assert key(values) == key(values.copy())
        assert key(flipped) != key(values)

    def test_key_is_a_bytes_digest_of_each_request(self, plan):
        requests = tuple(make_requests(2))
        payload = ServeBatch(plan, 2024, LAYER, requests).to_dict()
        digest = payload["requests"][0]
        assert digest["shape"] == [256, 1] and digest["dtype"] == "float64"
        assert digest["blake2b"] == hashlib.blake2b(
            requests[0].activations.tobytes(), digest_size=16
        ).hexdigest()


class TestPreparedHandles:
    def test_warm_execution_takes_no_weight_digest(self, plan, monkeypatch):
        InferenceService(plan).start().stop()
        batch = ServeBatch(plan, 2024, LAYER, tuple(make_requests(3)))

        def forbidden(*args, **kwargs):
            raise AssertionError("prepare_cache_key on the serving path")

        monkeypatch.setattr(kernel_base, "prepare_cache_key", forbidden)
        (record,) = execute_serve_batches([batch])
        weight = _runtime_for(plan, 2024).weights[LAYER]
        for request, output in zip(batch.requests, record.outputs, strict=True):
            np.testing.assert_allclose(
                output, weight @ request.activations, rtol=1e-9, atol=1e-9
            )

    def test_handle_is_prepared_once_and_held_once(self, plan):
        runtime = planned_runtime(plan, 7)
        kernel = runtime.model.kernel_for(LAYER)
        x = np.ones((GEMM[2], 2))
        first = runtime.execute(LAYER, x)
        handle = runtime.handles[LAYER]
        second = runtime.execute(LAYER, x)
        assert runtime.handles[LAYER] is handle
        assert first.tobytes() == second.tobytes()
        assert not kernel.__dict__.get("_prepare_cache")

    def test_matches_the_cold_matmul_path_bit_for_bit(self, plan):
        runtime = planned_runtime(plan, 7)
        x = np.random.default_rng(5).normal(size=(GEMM[2], 4))
        expected = runtime.model.matmul(LAYER, runtime.weights[LAYER], x)
        assert runtime.execute(LAYER, x).tobytes() == expected.tobytes()


def _best_run_s(kernel, handle, x, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        kernel.run(handle, x)
        best = min(best, time.perf_counter() - began)
    return best


def _recorded_over_run(plan, rng) -> dict[str, float]:
    """Serve five full batches per layer; recorded median / best-of-5 run."""
    service = InferenceService(plan, workers=1, deadline_s=10.0).start()
    runtime = cells._runtime_for(plan, service.weight_seed)
    rows = {layer: runtime.weights[layer].shape[1] for layer in service.windows}
    try:
        for layer, window_ in service.windows.items():
            for _ in range(5):
                batch = [
                    PredictRequest.from_array(layer, rng.normal(size=rows[layer]))
                    for _ in range(window_.width)
                ]
                for pending in [service.submit(request) for request in batch]:
                    assert pending.result(timeout=120.0).ok
    finally:
        service.stop()
    ratios = {}
    for layer, recorded in service.recorded_times().items():
        x = rng.normal(size=(rows[layer], service.windows[layer].width))
        run_s = _best_run_s(runtime.model.kernel_for(layer), runtime.handles[layer], x)
        ratios[layer] = recorded / run_s
    return ratios


def test_recorded_times_track_kernel_run(transformer_plan, monkeypatch):
    """Each served batch costs about one kernel ``run`` at its width: the
    recorded per-layer medians stay within 2x of best-of-5 ``run``.

    Batches execute in a worker process, as in a deployment, one full batch
    at a time, so this thread's submissions never compete with a batch for
    the cores.  Other load on a shared host only inflates the recorded
    side, so the best of three attempts counts; a per-batch weight digest
    reads 9-44x.  The Transformer runtime lives in a private memo, dropped
    after the test, so later tests do not fork a process holding it.
    """
    monkeypatch.setattr(cells, "_RUNTIME_MEMO", OrderedDict())
    rng = np.random.default_rng(9)
    attempts = []
    for _ in range(3):
        attempts.append(_recorded_over_run(transformer_plan, rng))
        if max(attempts[-1].values()) <= 2.0:
            return
    pytest.fail(f"recorded / kernel run per layer, three attempts: {attempts}")


#: sha256 of the ``--replay`` stdout for :func:`_golden_stdin`, recorded
#: with the nested-tuple payload implementation.  Every output column sums
#: at most two non-zero products (scaled by powers of two), so the bytes do
#: not depend on the BLAS summation order.  The digest assumes the tuner
#: assigns ``VW,V=32`` to this GEMM (the kernel decides which weights its
#: pattern keeps); the test checks that first.
GOLDEN_REPLAY_SHA256 = "88b4e21e6d2b33bfaa0db41c04993d0d42aa68e609f86afd65981c7dba165aa7"


def _golden_stdin() -> str:
    lines = []
    for i in range(4):
        column = [0.0] * 256
        column[3 * i] = 0.5
        column[7 * i + 1] = -2.0
        lines.append(json.dumps({"id": f"c{i}", "activations": column}))
    block = [[0.0, 0.0] for _ in range(256)]
    block[5][0] = 1.0
    block[9][1] = 0.25
    block[200][1] = -4.0
    lines.append(json.dumps({"id": "block", "activations": block}))
    lines.append('{"id": "bad", "activations": [1.0, 2.0')
    return "\n".join(lines) + "\n"


def test_cli_jsonl_round_trip_is_byte_identical():
    assert Autotuner().plan_gemm(GEMM, "V100", 0.9).assignments[0].label == "VW,V=32"
    result = run_cli([*BASE_ARGS, "--stdin-jsonl", "--replay"], _golden_stdin())
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_REPLAY_SHA256
