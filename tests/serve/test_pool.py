"""Worker pool: correct results, crash recovery, clean shutdown."""

from __future__ import annotations

import os
import subprocess
import sys
import time
import warnings

import pytest

from repro.serve import (
    FaultPlan,
    FaultSpec,
    PoolStompedWarning,
    ServeBatch,
    WorkerPool,
    execute_serve_batches,
)
from repro.serve.pool import BatchResult

from conftest import LAYER, make_requests


def make_batches(plan, count: int) -> list[ServeBatch]:
    requests = make_requests(count * 2)
    return [
        ServeBatch(
            plan=plan,
            weight_seed=2024,
            layer=LAYER,
            requests=tuple(requests[2 * i : 2 * i + 2]),
            batch_id=i,
        )
        for i in range(count)
    ]


class TestWorkerPool:
    def test_results_match_serial_execution(self, plan):
        batches = make_batches(plan, 4)
        expected = execute_serve_batches(batches)
        pool = WorkerPool(2)
        try:
            for batch in batches:
                pool.submit(batch)
            results = {r.batch.batch_id: r for r in pool.collect_all()}
        finally:
            pool.close()
        assert set(results) == {0, 1, 2, 3}
        for record in expected:
            result = results[record.config.batch_id]
            assert isinstance(result, BatchResult)
            assert result.elapsed_s > 0.0
            for left, right in zip(record.outputs, result.outputs, strict=True):
                assert left.tobytes() == right.tobytes()

    def test_worker_crash_recovers_outstanding_batches(self, plan):
        """Killing a worker mid-stream loses nothing: the pool respawns it
        and resubmits the batches it owed."""
        batches = make_batches(plan, 6)
        pool = WorkerPool(2)
        try:
            for batch in batches:
                pool.submit(batch)
            victim = pool._workers[0].process
            victim.kill()
            victim.join(timeout=10.0)
            results = pool.collect_all()
        finally:
            pool.close()
        assert sorted(r.batch.batch_id for r in results) == list(range(6))
        # The crashed slot was respawned, not removed.
        assert len(pool) == 2

    def test_duplicate_batch_id_rejected(self, plan):
        batch = make_batches(plan, 1)[0]
        pool = WorkerPool(1)
        try:
            pool.submit(batch)
            with pytest.raises(ValueError):
                pool.submit(batch)
            pool.collect_all()
        finally:
            pool.close()

    def test_close_is_idempotent_and_blocks_submit(self, plan):
        pool = WorkerPool(1)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(make_batches(plan, 1)[0])

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestPoolRobustness:
    """PR 9 hardening: structured errors, stale replies, bounded close."""

    def test_executor_error_returns_batch_error_not_crash(self, plan):
        """A batch whose cell raises answers with error="executor": the
        worker survives and keeps serving subsequent batches."""
        batches = make_batches(plan, 3)
        fault_plan = FaultPlan((FaultSpec(kind="raise", batch_id=1, times=9),))
        pool = WorkerPool(1, fault_plan=fault_plan)
        try:
            for batch in batches:
                pool.submit(batch)
            results = {r.batch.batch_id: r for r in pool.collect_all()}
        finally:
            pool.close()
        assert set(results) == {0, 1, 2}
        assert results[0].error is None and results[2].error is None
        failed = results[1]
        assert failed.outputs is None
        assert failed.error is not None and failed.error.kind == "executor"
        assert "injected executor fault" in failed.error.message
        assert pool.retried == 0  # an answered error is final, never retried

    def test_unknown_batch_id_reply_dropped_with_warning(self, plan):
        """A stale/foreign batch_id in a worker reply must not KeyError the
        dispatcher: the reply is dropped under PoolStompedWarning."""
        batch = make_batches(plan, 1)[0]
        pool = WorkerPool(1)
        try:
            pool.submit(batch)
            # Simulate ledger stomping: forget the in-flight entry so the
            # worker's reply arrives with an unknown batch_id.
            stolen = dict(pool._workers[0].outstanding)
            pool._workers[0].outstanding.clear()
            pool._workers[0].sent_at.clear()
            with pytest.warns(PoolStompedWarning, match="unknown batch_id"):
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if pool.collect(timeout=0.2):
                        raise AssertionError("stale reply must be dropped")
                    if not pool._workers[0].conn.poll(0):
                        break
            # The pool still works: restore and serve the batch for real.
            pool._workers[0].outstanding.update(stolen)
            pool.submit(make_batches(plan, 2)[1])
        finally:
            pool.close()

    def test_quarantine_after_retry_budget(self, plan):
        batches = make_batches(plan, 2)
        fault_plan = FaultPlan((FaultSpec(kind="kill", batch_id=0, times=99),))
        pool = WorkerPool(
            1, fault_plan=fault_plan, max_retries=1, backoff_base_s=0.01
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PoolStompedWarning)
                pool.submit(batches[0])
                results = {r.batch.batch_id: r for r in pool.collect_all()}
                # The pool keeps serving after isolating the poison batch.
                pool.submit(batches[1])
                results.update(
                    (r.batch.batch_id, r) for r in pool.collect_all()
                )
        finally:
            pool.close()
        assert results[0].error is not None
        assert results[0].error.kind == "quarantined"
        assert "max_retries=1" in results[0].error.message
        assert results[1].error is None
        assert pool.quarantined == 1

    def test_only_repeated_deaths_back_off(self, plan, monkeypatch):
        """A lone death is replaced at once; the next consecutive one waits."""
        from repro.serve import pool as pool_module

        sleeps: list[float] = []
        monkeypatch.setattr(pool_module.time, "sleep", sleeps.append)
        fault_plan = FaultPlan((FaultSpec(kind="kill", batch_id=0, times=2),))
        pool = WorkerPool(1, fault_plan=fault_plan, backoff_base_s=0.5)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PoolStompedWarning)
                pool.submit(make_batches(plan, 1)[0])
                results = pool.collect_all()
        finally:
            pool.close()
        assert [r.error for r in results] == [None]
        assert pool.retried == 2
        assert sleeps == [0.5]

    def test_close_reports_escalation_stages(self, plan):
        pool = WorkerPool(2)
        report = pool.close(timeout=5.0)
        assert report == {"joined": 2, "terminated": 0, "killed": 0}
        # Idempotent: a second close has nothing left to do.
        assert pool.close() == {"joined": 0, "terminated": 0, "killed": 0}

    def test_close_terminates_wedged_workers(self, plan):
        """A worker stuck in a hang fault cannot join: close() escalates to
        terminate within its bound instead of waiting forever."""
        batch = make_batches(plan, 1)[0]
        fault_plan = FaultPlan((FaultSpec(kind="hang", batch_id=0, times=1),))
        pool = WorkerPool(1, fault_plan=fault_plan)
        try:
            pool.submit(batch)
            time.sleep(0.3)  # let the worker enter the hang
        finally:
            began = time.monotonic()
            report = pool.close(timeout=0.5)
            elapsed = time.monotonic() - began
        assert elapsed < 10.0
        assert report["terminated"] + report["killed"] == 1


def test_blas_cap_lowers_but_never_raises():
    """A worker's BLAS pool drops to its CPU share; a lower pin stays."""
    code = (
        "from repro.serve.pool import _cap_blas_threads\n"
        "print(_cap_blas_threads(1), _cap_blas_threads(4))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    if result.stdout.split() == ["None", "None"]:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert result.stdout.split() == ["1", "1"]


def test_blas_cap_skips_a_library_that_cannot_be_loaded(monkeypatch, tmp_path):
    """A mapped OpenBLAS that is gone from disk is skipped, not fatal."""
    from repro.serve import pool

    missing = tmp_path / "libopenblas-deleted.so.0"
    maps = tmp_path / "maps"
    maps.write_text(f"7f00-7f01 r-xp 00000000 08:01 42 {missing} (deleted)\n")
    monkeypatch.setattr(pool, "Path", lambda _path: maps)
    assert pool._openblas_thread_functions.__wrapped__() is None
