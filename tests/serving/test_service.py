"""DecodeService: the async front-end over the continuous batcher.

Covers the future-based submit/result API (results bitwise-equal to
solo decodes), per-caller dtype capture, queue-depth backpressure,
admission deadlines, graceful drain/shutdown, and the FastAPI import
gate — the suite runs hermetically with FastAPI absent (an optional
dependency, never a test dependency) and smoke-tests
the HTTP app when it happens to be installed.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import nn
from repro.serving import (
    DeadlineExceededError,
    DecodeService,
    InvalidRequestError,
    QueueFullError,
    ServiceClosedError,
    create_app,
    decode_model,
    fastapi_available,
)

HAVE_FASTAPI = fastapi_available()


def _assert_request_bitwise(result, batch, output):
    valid = batch.tgt_mask
    np.testing.assert_array_equal(result.segments[valid],
                                  output.segments[valid])
    np.testing.assert_array_equal(result.ratios[valid],
                                  output.ratios.data[valid])
    np.testing.assert_array_equal(result.log_probs[valid],
                                  output.log_probs.data[valid])


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSubmitResult:
    def test_results_match_solo_decodes(self, served_lte, solo_reference):
        refs = {i: solo_reference(served_lte, [i]) for i in range(6)}
        with DecodeService(served_lte, max_batch=3) as service:
            handles = {i: service.submit(ref[0], ref[1])
                       for i, ref in refs.items()}
            for i, handle in handles.items():
                result = service.result(handle, timeout=30)
                _assert_request_bitwise(result, refs[i][0], refs[i][2])
            assert service.drain(timeout=10)
            stats = service.stats
        assert stats["submitted"] == 6
        assert stats["completed"] == 6
        assert stats["rejected"] == 0
        assert stats["solo"] == 0

    def test_flags_captured_per_caller(self, served_lte, solo_reference):
        """Two callers with different ambient dtypes each get results
        under their own configuration, from the same service."""
        other = ("float32" if nn.get_compute_dtype() == np.dtype(np.float64)
                 else "float64")
        ref_a = solo_reference(served_lte, [0])
        batch_b, mask_b, _ = solo_reference(served_lte, [1], sparse=False)
        with nn.use_compute_dtype(other), nn.no_grad():
            out_b = decode_model(served_lte, batch_b, mask_b)
        with DecodeService(served_lte, max_batch=4) as service:
            a = service.submit(ref_a[0], ref_a[1])
            with nn.use_compute_dtype(other):
                b = service.submit(batch_b, mask_b)
            _assert_request_bitwise(service.result(a, timeout=30),
                                    ref_a[0], ref_a[2])
            _assert_request_bitwise(service.result(b, timeout=30),
                                    batch_b, out_b)

    def test_unknown_handle(self, served_lte):
        with DecodeService(served_lte) as service:
            with pytest.raises(KeyError):
                service.result(12345, timeout=1)

    def test_concurrent_submitters(self, served_lte, solo_reference):
        """Many threads submitting at once: every request resolves to
        its own bitwise-correct result."""
        refs = {i: solo_reference(served_lte, [i % 8]) for i in range(12)}
        errors = []

        def client(service, i):
            try:
                handle = service.submit(refs[i][0], refs[i][1])
                result = service.result(handle, timeout=30)
                _assert_request_bitwise(result, refs[i][0], refs[i][2])
            except Exception as error:  # surfaced after join
                errors.append((i, error))

        with DecodeService(served_lte, max_batch=4, max_queue=32) as service:
            threads = [threading.Thread(target=client, args=(service, i))
                       for i in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert errors == []


class TestBackpressure:
    def test_queue_full_rejects_at_the_door(self, served_lte, make_request):
        data = make_request([0], served_lte)
        service = DecodeService(served_lte, max_batch=2, max_queue=1)
        try:
            # Holding the service condition keeps the worker parked, so
            # the first submission stays pending deterministically.
            with service._cond:
                first = service.submit(*data)
                with pytest.raises(QueueFullError, match="max_queue"):
                    service.submit(*data)
            assert not isinstance(service.result(first, timeout=30),
                                  Exception)
            assert service.stats["rejected"] == 0  # shed, never counted
        finally:
            service.shutdown()

    def test_max_queue_validation(self, served_lte):
        with pytest.raises(ValueError):
            DecodeService(served_lte, max_queue=0)

    def test_deadline_rejects_queued_request(self, served_lte, make_request,
                                             solo_reference):
        """A request that cannot be admitted before its timeout fails
        with DeadlineExceededError; co-resident work is unaffected."""
        clock = _FakeClock()
        ref = solo_reference(served_lte, [2])
        service = DecodeService(served_lte, max_batch=1, max_queue=8,
                                clock=clock)
        try:
            with service._cond:  # park the worker
                occupant = service.submit(ref[0], ref[1])
                late = service.submit(*make_request([1], served_lte),
                                      timeout=0.5)
                clock.now = 1.0  # expires `late` before any admission
            with pytest.raises(DeadlineExceededError):
                service.result(late, timeout=30)
            _assert_request_bitwise(service.result(occupant, timeout=30),
                                    ref[0], ref[2])
            assert service.stats["rejected"] == 1
        finally:
            service.shutdown()


class TestShutdown:
    def test_submit_after_shutdown_raises(self, served_lte, make_request):
        service = DecodeService(served_lte)
        service.shutdown()
        with pytest.raises(ServiceClosedError):
            service.submit(*make_request([0], served_lte))
        service.shutdown()  # idempotent

    def test_shutdown_drains_pending_work(self, served_lte, solo_reference):
        refs = {i: solo_reference(served_lte, [i]) for i in range(4)}
        service = DecodeService(served_lte, max_batch=2)
        handles = {i: service.submit(ref[0], ref[1])
                   for i, ref in refs.items()}
        service.shutdown(drain=True, timeout=60)
        for i, handle in handles.items():
            _assert_request_bitwise(service.result(handle, timeout=1),
                                    refs[i][0], refs[i][2])

    def test_abandon_fails_queued_futures(self, served_lte, make_request):
        data = make_request([0], served_lte)
        service = DecodeService(served_lte)
        with service._cond:  # park the worker before it can admit
            handle = service.submit(*data)
            # join() cannot finish while we hold the lock; the flag is
            # set, and the worker abandons the queue once we release.
            service.shutdown(drain=False, timeout=0.05)
        service._worker.join(timeout=10)
        with pytest.raises(ServiceClosedError):
            service.result(handle, timeout=5)
        assert service.stats["rejected"] == 1

    def test_context_manager_drains(self, served_lte, make_request):
        with DecodeService(served_lte, max_batch=2) as service:
            handle = service.submit(*make_request([3], served_lte))
        # __exit__ ran shutdown(drain=True): the result must be ready.
        assert service.result(handle, timeout=1) is not None


class TestFaultIsolation:
    def test_malformed_request_does_not_kill_the_worker(
            self, served_lte, make_request, solo_reference):
        batch, _ = make_request([2], served_lte)  # 17 steps
        _, wrong_mask = make_request([0], served_lte)  # 5 steps
        good = solo_reference(served_lte, [1])
        with DecodeService(served_lte, max_batch=2) as service:
            bad = service.submit(batch, wrong_mask)
            fine = service.submit(good[0], good[1])
            with pytest.raises(InvalidRequestError) as caught:
                service.result(bad, timeout=5)
            assert isinstance(caught.value.__cause__, ValueError)
            _assert_request_bitwise(service.result(fine, timeout=5),
                                    good[0], good[2])
            assert service._worker.is_alive()
            assert service.stats["rejected"] == 1

    def test_step_fault_fails_every_caller_and_closes(self, served_lte,
                                                      make_request):
        """An exception out of a scheduler step is not one request's:
        every outstanding future fails with it, nobody hangs, and the
        closed service refuses new work."""
        data = make_request([0], served_lte)
        service = DecodeService(served_lte, max_batch=2)

        def broken_step():
            raise RuntimeError("scheduler fault")

        with service._cond:  # park the worker while the fault is armed
            service._batcher.step = broken_step
            first = service.submit(*data)
            second = service.submit(*data)
        for handle in (first, second):
            with pytest.raises(RuntimeError, match="scheduler fault"):
                service.result(handle, timeout=5)
        assert service.drain(timeout=5)
        with pytest.raises(ServiceClosedError):
            service.submit(*data)
        service.shutdown(timeout=5)


# ----------------------------------------------------------------------
# FastAPI import gating (optional, never required)
# ----------------------------------------------------------------------
class TestApiGating:
    def test_availability_probe_matches_importability(self):
        try:
            import fastapi  # noqa: F401
            importable = True
        except ImportError:
            importable = False
        assert fastapi_available() == importable

    @pytest.mark.skipif(HAVE_FASTAPI, reason="fastapi installed: app builds")
    def test_create_app_raises_without_fastapi(self, served_lte):
        with DecodeService(served_lte) as service:
            with pytest.raises(RuntimeError, match="fastapi"):
                create_app(service, lambda payload: None)

    @pytest.mark.skipif(not HAVE_FASTAPI, reason="fastapi not installed")
    def test_http_smoke(self, served_lte, make_request):
        from fastapi.testclient import TestClient

        data = make_request([0], served_lte)
        with DecodeService(served_lte, max_batch=2) as service:
            app = create_app(service, lambda payload: data)
            client = TestClient(app)
            health = client.get("/healthz")
            assert health.status_code == 200
            assert health.json()["status"] == "ok"
            response = client.post("/decode", json={})
            assert response.status_code == 200
            body = response.json()
            assert len(body["segments"]) == int(data[0].size)
            assert body["work_rows"] > 0
