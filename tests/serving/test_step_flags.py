"""A request carries the compute dtype it was submitted under;
``ContinuousBatcher.step`` re-asserts its residents' dtype only when
the ambient one differs, and leaves the ambient dtype as it found it
either way."""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.serving import ContinuousBatcher, decode_model

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def test_submit_records_the_ambient_compute_dtype(served_lte, solo_reference):
    batch, log_mask, _ = solo_reference(served_lte, [0])
    batcher = ContinuousBatcher(served_lte, max_batch=4)
    with nn.use_compute_dtype("float32"):
        batcher.submit(batch, log_mask)
    with nn.use_compute_dtype("float64"):
        batcher.submit(batch, log_mask)
    assert [r.compute_dtype for r in batcher._queue] == [F32, F64]


def test_float32_generation_steps_under_float64_ambient(served_lte,
                                                        solo_reference):
    batch, log_mask, _ = solo_reference(served_lte, [0, 1])
    with nn.use_compute_dtype("float32"), nn.no_grad():
        expected = decode_model(served_lte, batch, log_mask)
    with nn.use_compute_dtype("float64"):
        batcher = ContinuousBatcher(served_lte, max_batch=4)
        seen = []  # the compute dtype each live-set step ran under
        live_step = batcher._live.step
        batcher._live.step = (lambda: seen.append(nn.get_compute_dtype())
                              or live_step())
        with nn.use_compute_dtype("float32"):
            handle = batcher.submit(batch, log_mask)
        outcomes = {}
        while not batcher.idle:
            outcomes.update(batcher.step())
            assert nn.get_compute_dtype() == F64
    assert seen and set(seen) == {F32}
    result = outcomes[handle]
    valid = batch.tgt_mask
    assert result.log_probs.dtype == np.float32
    np.testing.assert_array_equal(result.segments[valid],
                                  expected.segments[valid])
    np.testing.assert_array_equal(result.ratios[valid],
                                  expected.ratios.data[valid])
    np.testing.assert_array_equal(result.log_probs[valid],
                                  expected.log_probs.data[valid])


def test_matching_dtype_steps_without_reasserting(served_lte, solo_reference,
                                                  monkeypatch):
    batch, log_mask, expected = solo_reference(served_lte, [2])
    batcher = ContinuousBatcher(served_lte, max_batch=2)
    handle = batcher.submit(batch, log_mask)
    batcher.step()  # admission builds the program under the dtype
    calls = []
    original = nn.use_compute_dtype
    monkeypatch.setattr(nn, "use_compute_dtype",
                        lambda dtype: calls.append(dtype) or original(dtype))
    outcomes = dict(batcher.drain())
    assert calls == []
    valid = batch.tgt_mask
    np.testing.assert_array_equal(outcomes[handle].log_probs[valid],
                                  expected.log_probs.data[valid])

