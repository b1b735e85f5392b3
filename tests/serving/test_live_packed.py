"""The packed live set against its per-admission oracle.

``LiveDecodeSet`` keeps one packed working set: per-row arrays, and
flat row-step tables joined once per admission.  Seeded random
admission schedules drive it side by side with the per-admission
oracle in ``live_oracle.py`` across the three program families (LTE
with sparse and dense masks, RNN+FL, MTrajRec).  Schedules mix
multi-row requests, row subsets, ragged and zero lengths, mid-step
retirements and sets that fall to one live row, and both sides must
agree bitwise on every output and on every emission-policy hook call.
Directed tests pin the per-step cost (one mask gather per step) and
the memory bound (tables at most twice the live blocks' rows).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from live_oracle import OracleLiveSet

from repro import nn
from repro.baselines.mtrajrec import MTrajRecModel
from repro.baselines.rnn import RNNRecoveryModel
from repro.serving import DecodeSession, GreedyEmission, MuxError
from repro.serving import programs as programs_module


class Recording(GreedyEmission):
    """Greedy emission that logs the working-set hooks."""

    def __init__(self):
        self.events = []

    def extend(self, rows):
        self.events.append(("extend", int(rows)))

    def compact(self, keep):
        self.events.append(("compact", np.asarray(keep).tolist()))


@pytest.fixture(scope="module")
def families(served_lte, tiny_config):
    rnn = RNNRecoveryModel(tiny_config, np.random.default_rng(7))
    attn = MTrajRecModel(tiny_config, np.random.default_rng(3))
    rnn.eval()
    attn.eval()
    return {"lte-sparse": (served_lte, True), "lte-dense": (served_lte, False),
            "rnn": (rnn, False), "mtrajrec": (attn, False)}


def _requests(make_request, model, sparse, rng, count):
    """``count`` random requests: ``(program, batch, lengths, rows)``."""
    out = []
    with nn.no_grad():
        for _ in range(count):
            size = int(rng.integers(1, 4))
            picks = rng.choice(8, size=size, replace=False).tolist()
            batch, log_mask = make_request(picks, model, sparse=sparse)
            lengths = batch.tgt_mask.sum(axis=1).astype(np.int64)
            draw = rng.random()
            if draw < 0.15:
                lengths = np.zeros_like(lengths)  # finishes next step
            elif draw < 0.4:
                lengths = rng.integers(0, batch.steps + 1, size=size)
            rows = None
            if size > 1 and rng.random() < 0.3:
                rows = np.sort(rng.choice(size, size=size - 1, replace=False))
            out.append((model.decode_program(batch, log_mask), batch,
                        lengths, rows))
    return out


def _run(live_set, requests, arrivals):
    """Drive one set through a schedule; head-of-line admission."""
    results = {}
    pending = deque(zip(arrivals, range(len(requests))))
    handles = {}
    step = 0
    with nn.no_grad():
        while pending or not live_set.empty:
            while pending and pending[0][0] <= step:
                program, batch, lengths, rows = requests[pending[0][1]]
                size = batch.size if rows is None else len(rows)
                if live_set.rows + size > live_set.max_batch:
                    break
                try:
                    handle = live_set.admit(program, batch, lengths=lengths,
                                            rows=rows)
                except MuxError:
                    break
                handles[handle] = pending.popleft()[1]
            for result in live_set.step():
                results[handles[result.handle]] = result
            step += 1
            assert step < 5_000
    return results


@pytest.mark.parametrize("family", ["lte-sparse", "lte-dense", "rnn",
                                    "mtrajrec"])
@pytest.mark.parametrize("seed", range(6))
def test_packed_set_matches_oracle(families, make_request, family, seed):
    model, sparse = families[family]
    rng = np.random.default_rng(20_000 + seed)
    requests = _requests(make_request, model, sparse, rng, 7)
    arrivals = np.sort(rng.integers(0, 25, size=len(requests))).tolist()
    max_batch = int(rng.integers(3, 7))
    packed_policy, oracle_policy = Recording(), Recording()
    packed = _run(DecodeSession(policy=packed_policy).open(max_batch),
                  requests, arrivals)
    oracle = _run(OracleLiveSet(oracle_policy, max_batch),
                  requests, arrivals)
    assert sorted(packed) == sorted(oracle) == list(range(len(requests)))
    for key, want in oracle.items():
        got = packed[key]
        np.testing.assert_array_equal(got.log_probs, want.log_probs)
        np.testing.assert_array_equal(got.ratios, want.ratios)
        np.testing.assert_array_equal(got.segments, want.segments)
        assert got.log_probs.dtype == want.log_probs.dtype
        assert (got.work_rows, got.dense_rows, got.steps) == \
            (want.work_rows, want.dense_rows, want.steps)
    assert packed_policy.events == oracle_policy.events


def test_falling_to_one_row_keeps_ballast(served_lte, make_request):
    """Two requests, one short: the survivor decodes alone (ballasted)
    for most of its life and still matches the oracle bitwise."""
    with nn.no_grad():
        requests = []
        for index in (2, 6):  # lengths 17 and 4
            batch, log_mask = make_request([index], served_lte)
            requests.append((served_lte.decode_program(batch, log_mask),
                             batch, batch.tgt_mask.sum(axis=1), None))
    packed = _run(DecodeSession().open(2), requests, [0, 0])
    oracle = _run(OracleLiveSet(GreedyEmission(), 2), requests, [0, 0])
    for key in (0, 1):
        np.testing.assert_array_equal(packed[key].log_probs,
                                      oracle[key].log_probs)
        np.testing.assert_array_equal(packed[key].ratios, oracle[key].ratios)


def test_one_mask_gather_per_step(served_lte, make_request, monkeypatch):
    """However many admissions share the set, a step slices the CSR
    mask table once."""
    calls = []
    real = programs_module.call_kernel

    def counting(name, kernel, *args):
        calls.append(name)
        return real(name, kernel, *args)

    monkeypatch.setattr(programs_module, "call_kernel", counting)
    live = DecodeSession().open()
    with nn.no_grad():
        for index in range(6):
            batch, log_mask = make_request([index], served_lte)
            live.admit(served_lte.decode_program(batch, log_mask), batch,
                       lengths=batch.tgt_mask.sum(axis=1))
        assert live.entries == 6
        steps = 0
        while not live.empty:
            calls.clear()
            live.step()
            steps += 1
            assert calls.count("sparse_mask_step") == 1
    assert steps == 17  # the longest request


def test_tables_stay_bounded_by_live_rows(served_lte, make_request):
    """Over many admit/retire cycles the tables never hold more than
    twice the rows of the admissions still decoding."""
    rng = np.random.default_rng(5)
    live = DecodeSession().open(max_batch=4)
    with nn.no_grad():
        programs = []
        for index in range(8):
            batch, log_mask = make_request([index], served_lte)
            programs.append((served_lte.decode_program(batch, log_mask),
                             batch))
        peak_used = 0  # spare capacity is at most the peak rows in use
        for _ in range(300):
            while live.free_rows and rng.random() < 0.7:
                program, batch = programs[int(rng.integers(8))]
                live.admit(program, batch, lengths=batch.tgt_mask.sum(axis=1))
                peak_used = max(peak_used, live._used)
            assert live._used <= 2 * live._live_size
            if live.entries:
                assert len(live._tables[0]) <= 2 * peak_used
            live.step()
            assert live._used <= 2 * live._live_size
