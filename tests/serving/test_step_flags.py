"""``ContinuousBatcher.step`` re-asserts its residents' dtypes only when
the ambient ones differ, and leaves the ambient dtypes as it found
them either way."""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.serving import ContinuousBatcher, ServingFlags, decode_model


def _ambient() -> tuple[np.dtype, np.dtype]:
    return nn.get_compute_dtype(), nn.get_default_dtype()


def test_is_ambient_is_capture_equality():
    flags = ServingFlags(exchange_dtype="float64", compute_dtype="float32")
    with nn.use_compute_dtype("float32"), nn.use_default_dtype("float64"):
        assert flags.is_ambient() and flags == ServingFlags.capture()
    with nn.use_compute_dtype("float64"), nn.use_default_dtype("float64"):
        assert not flags.is_ambient() and flags != ServingFlags.capture()
    with nn.use_compute_dtype("float32"), nn.use_default_dtype("float32"):
        assert not flags.is_ambient()


def test_float32_generation_steps_under_float64_ambient(served_lte,
                                                        solo_reference):
    batch, log_mask, _ = solo_reference(served_lte, [0, 1])
    float32 = ServingFlags(exchange_dtype="float32", compute_dtype="float32")
    with float32.applied(), nn.no_grad():
        expected = decode_model(served_lte, batch, log_mask)
    with nn.use_compute_dtype("float64"), nn.use_default_dtype("float64"):
        before = _ambient()
        batcher = ContinuousBatcher(served_lte, max_batch=4)
        seen = []  # the dtypes each live-set step ran under
        live_step = batcher._live.step
        batcher._live.step = lambda: seen.append(_ambient()) or live_step()
        handle = batcher.submit(batch, log_mask, flags=float32)
        outcomes = {}
        while not batcher.idle:
            outcomes.update(batcher.step())
            assert _ambient() == before
    assert seen and set(seen) == {(np.dtype(np.float32),) * 2}
    result = outcomes[handle]
    valid = batch.tgt_mask
    assert result.log_probs.dtype == np.float32
    np.testing.assert_array_equal(result.segments[valid],
                                  expected.segments[valid])
    np.testing.assert_array_equal(result.ratios[valid],
                                  expected.ratios.data[valid])
    np.testing.assert_array_equal(result.log_probs[valid],
                                  expected.log_probs.data[valid])


def test_matching_flags_step_without_reasserting(served_lte, solo_reference,
                                                 monkeypatch):
    batch, log_mask, expected = solo_reference(served_lte, [2])
    batcher = ContinuousBatcher(served_lte, max_batch=2)
    handle = batcher.submit(batch, log_mask)
    batcher.step()  # admission builds the program under the flags
    calls = []
    original = ServingFlags.applied
    monkeypatch.setattr(ServingFlags, "applied",
                        lambda self: calls.append(self) or original(self))
    outcomes = dict(batcher.drain())
    assert calls == []
    valid = batch.tgt_mask
    np.testing.assert_array_equal(outcomes[handle].log_probs[valid],
                                  expected.log_probs.data[valid])
