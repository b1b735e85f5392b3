"""Continuous batching vs solo decode: the bitwise equivalence property.

The scheduler's contract (``repro/serving/scheduler.py``): every
request admitted into the live working set — whenever it arrives,
whatever else is co-resident, however the set compacts around it —
produces outputs **bit-identical** to a solo
:func:`~repro.serving.decode_model` call on the same request batch
under the same flags.  This suite proves it property-style: 100
randomized seeded scenarios (25 seeds x the sparse/fused flag grid)
with random request sets, arrival times, and working-set budgets,
plus directed tests for the scheduler invariants (capacity, FIFO,
drain, deadlines) and the single-row-ballast/admission seam.

Compute-dtype coverage comes from the environment forcing in the root
conftest: CI's ``tier1-serving`` leg re-runs this file under
``REPRO_COMPUTE_DTYPE=float32``.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro import nn
from repro.baselines.mtrajrec import MTrajRecModel
from repro.nn.flops import estimate_decode_flops
from repro.serving import (
    ContinuousBatcher,
    DeadlineExceededError,
    DecodeSession,
    GreedyEmission,
    MuxError,
    decode_model,
)

#: The flag grid each seed runs under.  fused=False exercises the
#: solo-fallback path (LTE builds no decode program without fused
#: kernels), sparse toggles the constraint-mask representation.
FLAG_GRID = [(True, True), (True, False), (False, True), (False, False)]


def _assert_request_bitwise(result, batch, output, label=""):
    valid = batch.tgt_mask
    np.testing.assert_array_equal(result.segments[valid],
                                  output.segments[valid], err_msg=label)
    np.testing.assert_array_equal(result.ratios[valid],
                                  output.ratios.data[valid], err_msg=label)
    np.testing.assert_array_equal(result.log_probs[valid],
                                  output.log_probs.data[valid], err_msg=label)


def _drive(batcher, schedule, data):
    """Run a batcher through an arrival ``schedule``.

    ``schedule`` is a list of ``(arrival_step, key)`` (sorted);
    ``data[key]`` is ``(batch, log_mask)``.  Checks the capacity
    invariant every step; returns ``{key: outcome}``.
    """
    outcomes = {}
    handles = {}
    pending = deque(schedule)
    step = 0
    while pending or not batcher.idle:
        while pending and pending[0][0] <= step:
            _, key = pending.popleft()
            batch, log_mask = data[key]
            handles[batcher.submit(batch, log_mask)] = key
        for handle, outcome in batcher.step():
            outcomes[handles[handle]] = outcome
        assert batcher.live_rows <= batcher.max_batch
        step += 1
        assert step < 10_000, "scheduler failed to make progress"
    assert batcher.idle and batcher.queue_depth == 0
    return outcomes


class TestSoloEquivalenceProperty:
    """100 randomized scenarios: arrivals, lengths, budgets, flags."""

    @pytest.mark.parametrize("sparse,fused", FLAG_GRID)
    @pytest.mark.parametrize("seed", range(25))
    def test_random_arrivals_are_bitwise(self, served_lte, serving_dataset,
                                         solo_reference, seed, sparse, fused):
        rng = np.random.default_rng(10_000 + seed)
        n_requests = int(rng.integers(2, 7))
        picks = rng.integers(0, len(serving_dataset.examples),
                             size=n_requests)
        arrivals = np.sort(rng.integers(0, 20, size=n_requests))
        max_batch = int(rng.integers(2, 6))

        data = {}
        refs = {}
        for j, idx in enumerate(picks):
            batch, log_mask, output = solo_reference(
                served_lte, [int(idx)], sparse=sparse, fused=fused)
            data[j] = (batch, log_mask)
            refs[j] = (batch, output)

        with nn.use_sparse_masks(sparse), nn.use_fused_kernels(fused):
            batcher = ContinuousBatcher(served_lte, max_batch=max_batch)
            outcomes = _drive(batcher,
                              list(zip(arrivals.tolist(), range(n_requests))),
                              data)

        assert sorted(outcomes) == list(range(n_requests))
        for j, outcome in outcomes.items():
            batch, output = refs[j]
            _assert_request_bitwise(
                outcome, batch, output,
                label=f"seed={seed} request={j} traj={picks[j]} "
                      f"sparse={sparse} fused={fused}")
            if not fused:  # no decode program: served by the solo fallback
                assert outcome.solo_fallback

    def test_multi_row_requests_are_bitwise(self, served_lte, solo_reference):
        """Requests are whole batches, not single rows: multi-trajectory
        request batches hold the same contract."""
        groups = [[0, 1], [2, 3, 4], [5], [6, 7]]
        data, refs = {}, {}
        for j, group in enumerate(groups):
            batch, log_mask, output = solo_reference(served_lte, group)
            data[j] = (batch, log_mask)
            refs[j] = (batch, output)
        batcher = ContinuousBatcher(served_lte, max_batch=4)
        outcomes = _drive(batcher, [(0, 0), (2, 1), (3, 2), (5, 3)], data)
        for j, outcome in outcomes.items():
            batch, output = refs[j]
            _assert_request_bitwise(outcome, batch, output, label=f"group {j}")


class TestSchedulerInvariants:
    def test_capacity_validation_at_submit(self, served_lte, make_request):
        batch, log_mask = make_request([0, 1, 2], served_lte)
        batcher = ContinuousBatcher(served_lte, max_batch=2)
        with pytest.raises(ValueError, match="max_batch"):
            batcher.submit(batch, log_mask)
        with pytest.raises(ValueError):
            ContinuousBatcher(served_lte, max_batch=0)

    def test_fifo_admission_order(self, served_lte, make_request):
        """No request is overtaken: under continuous arrivals into a
        tiny working set, admission order equals submission order."""
        batcher = ContinuousBatcher(served_lte, max_batch=2)
        data = {j: make_request([j % 8], served_lte) for j in range(10)}
        submit_order = []
        step = 0
        while not batcher.idle or step == 0:
            if step < 10:  # one new arrival per step: constant pressure
                handle = batcher.submit(*data[step])
                submit_order.append(handle)
            batcher.step()
            step += 1
        assert batcher.admission_log == submit_order

    def test_drain_completes_with_empty_queue(self, served_lte, make_request):
        batcher = ContinuousBatcher(served_lte, max_batch=3)
        handles = [batcher.submit(*make_request([j], served_lte))
                   for j in range(6)]
        outcomes = dict(batcher.drain())
        assert sorted(outcomes) == sorted(handles)
        assert batcher.idle
        assert batcher.queue_depth == 0
        assert batcher.live_rows == 0

    def test_expired_requests_reject_cleanly(self, served_lte, make_request,
                                             solo_reference):
        """A queued request whose deadline passes is rejected with a
        clear error and never enters (or perturbs) the working set:
        the co-resident requests still decode bit-identically."""
        clock = _FakeClock()
        batcher = ContinuousBatcher(served_lte, max_batch=2, clock=clock)
        a = batcher.submit(*make_request([2], served_lte))  # length 17
        b = batcher.submit(*make_request([1], served_lte))  # length 9
        batcher.step()  # both admitted: the set is now full
        late = batcher.submit(*make_request([3], served_lte),
                              deadline=clock.now + 0.5)
        clock.now = 1.0  # the deadline passes while `late` is queued
        outcomes = dict(batcher.drain())
        assert isinstance(outcomes[late], DeadlineExceededError)
        assert "deadline" in str(outcomes[late])
        for handle, idx in ((a, 2), (b, 1)):
            batch, _, output = solo_reference(served_lte, [idx])
            _assert_request_bitwise(outcomes[handle], batch, output)

    def test_unexpired_deadline_is_served(self, served_lte, make_request):
        clock = _FakeClock()
        batcher = ContinuousBatcher(served_lte, max_batch=2, clock=clock)
        handle = batcher.submit(*make_request([0], served_lte),
                                deadline=clock.now + 10.0)
        outcomes = dict(batcher.drain())
        assert not isinstance(outcomes[handle], Exception)

    def test_mux_incompatible_requests_wait_for_drain(self, tiny_config,
                                                      solo_reference,
                                                      make_request):
        """Attention requests with different padded encoder widths can
        never share a working set (zero-extending the key axis is not
        bitwise-stable); the head blocks until the set drains, then
        re-keys it — both decode bit-identically."""
        model = MTrajRecModel(tiny_config, np.random.default_rng(3))
        model.eval()
        ref_a = solo_reference(model, [2])  # length 17
        ref_b = solo_reference(model, [0])  # length 5: different widths
        assert ref_a[0].steps != ref_b[0].steps
        batcher = ContinuousBatcher(model, max_batch=4)
        data = {0: ref_a[:2], 1: ref_b[:2]}
        outcomes = _drive(batcher, [(0, 0), (0, 1)], data)
        for j, ref in ((0, ref_a), (1, ref_b)):
            _assert_request_bitwise(outcomes[j], ref[0], ref[2],
                                    label=f"request {j}")

    def test_mixed_flag_requests_never_share_a_set(self, served_lte,
                                                   solo_reference):
        """Requests captured under different flags are admitted into
        different working-set generations, each served under its own
        flags bit-identically."""
        ref_sparse = solo_reference(served_lte, [0], sparse=True)
        ref_dense = solo_reference(served_lte, [1], sparse=False)
        batcher = ContinuousBatcher(served_lte, max_batch=4)
        with nn.use_sparse_masks(True):
            a = batcher.submit(ref_sparse[0], ref_sparse[1])
        with nn.use_sparse_masks(False):
            b = batcher.submit(ref_dense[0], ref_dense[1])
        outcomes = dict(batcher.drain())
        _assert_request_bitwise(outcomes[a], ref_sparse[0], ref_sparse[2])
        _assert_request_bitwise(outcomes[b], ref_dense[0], ref_dense[2])

    def test_per_request_decode_flops(self, served_lte, make_request):
        """Cost accounting prices true decode lengths, not padding."""
        batch, log_mask = make_request([0, 2], served_lte)
        lengths = batch.tgt_mask.sum(axis=1)
        assert lengths.min() < batch.steps  # genuinely ragged
        batcher = ContinuousBatcher(served_lte, max_batch=2)
        handle = batcher.submit(batch, log_mask)
        outcomes = dict(batcher.drain())
        expected = sum(
            estimate_decode_flops(served_lte, int(batch.steps),
                                  decode_len=int(n))
            for n in lengths)
        assert outcomes[handle].decode_flops == pytest.approx(expected)
        padded = estimate_decode_flops(served_lte, int(batch.steps), batch=2)
        assert outcomes[handle].decode_flops < padded


class TestBallastAdmissionSeam:
    """The single-live-row BLAS ballast x admission interaction."""

    def test_admission_into_ballasted_set_is_bitwise(self, served_lte,
                                                     solo_reference):
        """A request admitted while the sole live row is carrying its
        transient self-ballast must join cleanly: the ballast row is
        dropped, both requests keep GEMM bit-patterns throughout."""
        ref_long = solo_reference(served_lte, [2])   # length 17
        ref_short = solo_reference(served_lte, [1])  # length 9
        data = {0: ref_long[:2], 1: ref_short[:2]}
        batcher = ContinuousBatcher(served_lte, max_batch=2)
        # Arrival at step 5: request 0 has been stepping alone (with
        # ballast) for 5 steps when request 1 joins.
        outcomes = _drive(batcher, [(0, 0), (5, 1)], data)
        _assert_request_bitwise(outcomes[0], ref_long[0], ref_long[2])
        _assert_request_bitwise(outcomes[1], ref_short[0], ref_short[2])

    def test_ballast_rows_are_not_double_counted(self, served_lte,
                                                 solo_reference):
        """Per-request work accounting excludes ballast rows: a
        single-trajectory request's ``work_rows`` equals its true
        length even when it decoded alone (ballasted) for part or all
        of its life."""
        ref_long = solo_reference(served_lte, [2])
        ref_short = solo_reference(served_lte, [1])
        long_len = int(ref_long[0].tgt_mask.sum())
        short_len = int(ref_short[0].tgt_mask.sum())
        batcher = ContinuousBatcher(served_lte, max_batch=2)
        outcomes = _drive(batcher, [(0, 0), (5, 1)],
                          {0: ref_long[:2], 1: ref_short[:2]})
        assert outcomes[0].work_rows == long_len
        assert outcomes[1].work_rows == short_len

    def test_single_request_alone_is_bitwise(self, served_lte,
                                             solo_reference):
        """The degenerate case: one request, never co-resident — the
        live set self-ballasts every step and still matches solo."""
        batch, log_mask, output = solo_reference(served_lte, [4])
        batcher = ContinuousBatcher(served_lte, max_batch=2)
        outcomes = _drive(batcher, [(0, 0)], {0: (batch, log_mask)})
        _assert_request_bitwise(outcomes[0], batch, output)
        assert outcomes[0].work_rows == int(batch.tgt_mask.sum())


class TestLiveDecodeSetEngine:
    """Engine-level admission primitives under the scheduler."""

    def _program(self, model, batch, log_mask):
        with nn.no_grad():
            return model.decode_program(batch, log_mask)

    def test_admit_validates(self, served_lte, make_request):
        batch, log_mask = make_request([0, 1], served_lte)
        program = self._program(served_lte, batch, log_mask)
        live = DecodeSession().open(max_batch=1)
        with pytest.raises(ValueError, match="max_batch"):
            live.admit(program, batch)
        with pytest.raises(ValueError, match="lengths"):
            DecodeSession().open().admit(program, batch,
                                         lengths=np.array([1]))
        with pytest.raises(ValueError):
            DecodeSession().open().admit(
                program, batch, lengths=np.full(batch.size, batch.steps + 1))
        with pytest.raises(ValueError):
            DecodeSession().open(max_batch=0)

    def test_non_program_is_a_mux_error(self):
        live = DecodeSession().open()
        with pytest.raises(MuxError, match="protocol"):
            live.admit(object(), None)

    def test_cross_model_admission_is_a_mux_error(self, served_lte,
                                                  tiny_config, make_request):
        other = MTrajRecModel(tiny_config, np.random.default_rng(3))
        other.eval()
        batch_a, mask_a = make_request([0], served_lte)
        with nn.use_sparse_masks(False):
            batch_b, mask_b = make_request([0], other)
        live = DecodeSession().open()
        live.admit(self._program(served_lte, batch_a, mask_a), batch_a)
        with pytest.raises(MuxError, match="mux-compatible"):
            live.admit(self._program(other, batch_b, mask_b), batch_b)
        # Draining the set re-keys it: the other model is admissible.
        with nn.no_grad():
            while not live.empty:
                live.step()
        live.admit(self._program(other, batch_b, mask_b), batch_b)

    def test_zero_length_admission_finishes_next_step(self, served_lte,
                                                      make_request):
        batch, log_mask = make_request([0], served_lte)
        program = self._program(served_lte, batch, log_mask)
        live = DecodeSession().open()
        handle = live.admit(program, batch,
                            lengths=np.zeros(batch.size, dtype=np.int64))
        assert not live.empty
        with nn.no_grad():
            results = live.step()
        assert [r.handle for r in results] == [handle]
        assert results[0].work_rows == 0
        assert live.empty

    def test_emission_policy_extension_hooks(self, served_lte, make_request):
        """Admission calls ``extend`` with the admitted row count and
        retirement calls ``compact`` with the kept positions — the seam
        a stateful (e.g. beam) policy needs to track the working set."""

        class Recording(GreedyEmission):
            def __init__(self):
                self.events = []

            def extend(self, rows):
                self.events.append(("extend", rows))

            def compact(self, keep):
                self.events.append(("compact", len(keep)))

        policy = Recording()
        batch_a, mask_a = make_request([2], served_lte)  # length 17
        batch_b, mask_b = make_request([1], served_lte)  # length 9
        live = DecodeSession(policy=policy).open(max_batch=2)
        with nn.no_grad():
            live.admit(self._program(served_lte, batch_a, mask_a), batch_a,
                       lengths=batch_a.tgt_mask.sum(axis=1))
            live.step()
            live.admit(self._program(served_lte, batch_b, mask_b), batch_b,
                       lengths=batch_b.tgt_mask.sum(axis=1))
            while not live.empty:
                live.step()
        assert policy.events.count(("extend", 1)) == 2
        # Two retirements: request b (9 steps), then request a (17) —
        # each compaction keeps the surviving rows only.
        compacts = [e for e in policy.events if e[0] == "compact"]
        assert compacts == [("compact", 1), ("compact", 0)]


class _FakeClock:
    """Deterministic injectable clock for deadline tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now
