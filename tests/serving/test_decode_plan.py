"""The fixed-set decode plan against the padded oracle.

:meth:`DecodeSession.run` sorts each working set by length, truncates
finished rows off the end of the state, and gathers step constants in
time-major blocks.  None of that may show in the outputs: every valid
step must equal, bit for bit, the padded decode of
``reference_paths.padded_decode`` (all rows, all steps, one working
set), and ``work_rows`` must count exactly ``max(live, 2)`` rows per
step of each working set.  Also pinned here: the emission policy's
``extend``/``compact`` hooks track the live rows, and the plan's extra
memory is bounded by a block, not by the batch.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.baselines.mtrajrec import MTrajRecModel
from repro.baselines.rnn import RNNRecoveryModel
from repro.core import ConstraintMaskBuilder, LTEModel
from repro.data import TrajectoryDataset
from repro.serving import DecodeSession, GreedyEmission, decode_model
from repro.serving import engine
from reference_paths import padded_decode

MASK_KINDS = ("sparse", "dense", "identity")


@pytest.fixture(scope="module")
def models(tiny_config):
    built = {"lte": LTEModel(tiny_config, np.random.default_rng(0)),
             "rnn": RNNRecoveryModel(tiny_config, np.random.default_rng(1)),
             "mtrajrec": MTrajRecModel(tiny_config, np.random.default_rng(2))}
    for model in built.values():
        model.eval()
    return built


@pytest.fixture(scope="module")
def identity_mask(tiny_world):
    return ConstraintMaskBuilder(tiny_world.network, identity=True)


@pytest.fixture(scope="module")
def setup(tiny_dataset, tiny_mask, identity_mask, models):
    """``build(model, mask_kind, rows) -> (program, batch)`` for the
    dataset's examples ``rows`` (repeats allowed)."""

    def build(name, mask_kind, rows):
        model = models[name]
        examples = [tiny_dataset.examples[i] for i in rows]
        batch = TrajectoryDataset(examples, tiny_dataset.grid,
                                  tiny_dataset.network,
                                  tiny_dataset.keep_ratio).full_batch()
        if mask_kind == "sparse":
            log_mask = tiny_mask.build_for(batch, model)
        elif mask_kind == "dense":
            log_mask = tiny_mask.build(batch)
        else:
            log_mask = identity_mask.build_for(batch, model)
        return model.decode_program(batch, log_mask), batch

    return build


def expected_work(lengths: np.ndarray, decode_batch: int | None) -> int:
    """Row-steps of the plan: per working set and step, ``max(live, 2)``
    while any row is live (the trailing one-row chunk is folded)."""
    b = lengths.size
    chunk = b if decode_batch is None else decode_batch
    starts = list(range(0, b, chunk))
    if chunk >= 2 and len(starts) > 1 and b - starts[-1] == 1:
        starts.pop()
    work = 0
    for start, stop in zip(starts, starts[1:] + [b]):
        part = lengths[start:stop]
        for t in range(int(part.max(initial=0))):
            work += max(int((part > t).sum()), 2)
    return work


def check_against_oracle(program, batch, lengths, decode_batch,
                         policy=None, on_run=None):
    """Run the plan and the padded oracle; ``on_run(program)`` is called
    between the two, so it sees the plan's calls only."""
    lengths = np.asarray(lengths, dtype=np.int64)
    with nn.no_grad():
        log_probs, ratios, segments = padded_decode(program, batch, lengths)
        if on_run is not None:
            on_run(program)
        result = DecodeSession(policy=policy, decode_batch=decode_batch).run(
            program, batch, lengths=lengths)
    np.testing.assert_array_equal(result.segments, segments)
    np.testing.assert_array_equal(result.ratios, ratios)
    np.testing.assert_array_equal(result.log_probs, log_probs)
    assert result.work_rows == expected_work(lengths, decode_batch)
    assert result.dense_rows == program.num_rows * program.num_steps
    return result


CASES = {
    "ragged_with_zeros": ([0, 1, 2, 3, 4, 5, 6], [5, 0, 17, 9, 0, 3, 9]),
    "single_row": ([4], [11]),
    "single_row_zero": ([4], [0]),
    "all_equal": ([2, 7, 9, 11, 13], [17] * 5),
    "all_zero": ([1, 2, 3], [0, 0, 0]),
    "one_live_among_zeros": ([1, 2, 3, 4], [0, 8, 0, 0]),
    "repeated_rows": ([6, 6, 6, 0], [17, 4, 12, 12]),
}


@pytest.mark.parametrize("decode_batch", [None, 1, 2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name,mask_kind", [
    ("lte", "sparse"), ("lte", "dense"), ("lte", "identity"),
    ("rnn", "dense"), ("rnn", "identity"),
    ("mtrajrec", "dense"), ("mtrajrec", "identity"),
])
def test_named_cases_match_padded_oracle(setup, name, mask_kind, case,
                                         decode_batch):
    rows, lengths = CASES[case]
    program, batch = setup(name, mask_kind, rows)
    check_against_oracle(program, batch, lengths, decode_batch)


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(["lte", "rnn", "mtrajrec"]),
       mask_kind=st.sampled_from(MASK_KINDS),
       decode_batch=st.sampled_from([None, 1, 2, 3]),
       block_rows=st.sampled_from([1, 3, 8, engine._BLOCK_ROWS]))
def test_random_plans_match_padded_oracle(setup, tiny_dataset, data, name,
                                          mask_kind, decode_batch,
                                          block_rows):
    if name != "lte" and mask_kind == "sparse":
        mask_kind = "dense"  # the baselines consume dense masks only
    rows = data.draw(st.lists(st.integers(0, len(tiny_dataset) - 1),
                              min_size=1, max_size=9), label="rows")
    program, batch = setup(name, mask_kind, rows)
    lengths = data.draw(st.lists(st.integers(0, program.num_steps),
                                 min_size=len(rows), max_size=len(rows)),
                        label="lengths")
    with mock.patch.object(engine, "_BLOCK_ROWS", block_rows):
        check_against_oracle(program, batch, lengths, decode_batch)


def _repeat(dataset, times: int):
    return TrajectoryDataset(dataset.examples * times, dataset.grid,
                             dataset.network, dataset.keep_ratio).full_batch()


@pytest.fixture(scope="module")
def wide(tiny_dataset):
    """480 rows: past the width where BLAS switches GEMM kernels."""
    return _repeat(tiny_dataset, 20)


class GatherCounter:
    """Records the row count of every constants gather of a program."""

    def __init__(self):
        self.gathers: list[int] = []

    def __call__(self, program) -> None:
        constants_at = program.constants_at

        def counted(tables, flat_rows):
            self.gathers.append(flat_rows.size)
            return constants_at(tables, flat_rows)

        program.constants_at = counted


def test_block_covers_fewer_steps_than_the_horizon(models, tiny_mask,
                                                   tiny_dataset):
    """120 rows by 17 steps is more than one block at the default
    size: the plan gathers constants several times, each gather at most
    a block, and together exactly the computed row-steps."""
    batch = _repeat(tiny_dataset, 5)
    model = models["lte"]
    program = model.decode_program(batch, tiny_mask.build_for(batch, model))
    lengths = np.full(batch.size, batch.steps)
    lengths[::3] = np.random.default_rng(4).integers(0, batch.steps,
                                                     lengths[::3].size)
    counter = GatherCounter()
    result = check_against_oracle(program, batch, lengths, None,
                                  on_run=counter)
    assert len(counter.gathers) > 1
    assert max(counter.gathers) <= engine._BLOCK_ROWS
    assert sum(counter.gathers) == result.work_rows


def test_working_sets_past_the_blas_kernel_switch(models, tiny_mask, wide):
    """Known gap of the engine's width-independence contract.

    OpenBLAS runs small DGEMMs (``M * N * K`` up to 1e6) on a separate
    kernel, and past that size a row's bits in the last ``S mod 8``
    output columns depend on its position in the matrix.  The segment
    head's ``(A, H) @ (H, S)`` here crosses the switch at about 300
    rows, so a wide ragged working set and the padded oracle can
    disagree by an ULP in those log-probability columns (the parent
    engine's compaction order shows the same).  Segments and ratios do
    not move; this pins that and bounds the log-probabilities."""
    model = models["lte"]
    program = model.decode_program(wide, tiny_mask.build_for(wide, model))
    lengths = np.random.default_rng(4).integers(0, wide.steps + 1, wide.size)
    with nn.no_grad():
        log_probs, ratios, segments = padded_decode(program, wide, lengths)
        result = DecodeSession().run(program, wide, lengths=lengths)
    np.testing.assert_array_equal(result.segments, segments)
    np.testing.assert_array_equal(result.ratios, ratios)
    np.testing.assert_array_max_ulp(result.log_probs, log_probs, maxulp=2)
    assert result.work_rows == expected_work(lengths, None)


class RecordingPolicy(GreedyEmission):
    """Greedy emission that tracks the working set through the hooks
    and checks every ``select`` against the tracked row count."""

    def __init__(self):
        self.tracked = 0
        self.live_row_steps = 0

    def extend(self, rows: int) -> None:
        self.tracked += rows

    def compact(self, keep: np.ndarray) -> None:
        assert keep.size <= self.tracked
        np.testing.assert_array_equal(keep, np.arange(keep.size))
        self.tracked = keep.size

    def select(self, log_probs: np.ndarray) -> np.ndarray:
        assert self.tracked >= 1
        assert self.tracked <= log_probs.shape[0] <= self.tracked + 1
        self.live_row_steps += self.tracked
        return super().select(log_probs)


@pytest.mark.parametrize("decode_batch", [None, 1, 2, 3])
@pytest.mark.parametrize("case", ["ragged_with_zeros", "single_row",
                                  "all_equal", "one_live_among_zeros"])
def test_policy_hooks_track_live_rows(setup, case, decode_batch):
    rows, lengths = CASES[case]
    program, batch = setup("lte", "sparse", rows)
    policy = RecordingPolicy()
    check_against_oracle(program, batch, lengths, decode_batch,
                         policy=policy)
    assert policy.tracked == 0  # every working set compacted to empty
    assert policy.live_row_steps == sum(lengths)


def test_plan_memory_is_bounded_by_a_block(models, tiny_world, wide):
    """Peak traced allocation of ``decode_model`` beyond its outputs
    stays below the batch's CSR mask bytes: the plan holds one block of
    constants at a time, never a time-major copy of the whole mask.

    The 600 m radius makes the mask the dominant per-row cost, as in
    the benchmark worlds; at narrow radii the per-step dense ``(A, S)``
    kernel temporaries, which every decode has, are comparable to the
    whole mask and the bound would measure them instead."""
    model = models["lte"]
    log_mask = ConstraintMaskBuilder(tiny_world.network,
                                     radius=600.0).build_for(wide, model)
    mask_bytes = (log_mask.indptr.nbytes + log_mask.indices.nbytes
                  + log_mask.log_values.nbytes)
    decode_model(model, wide, log_mask)  # warm lazily built model state
    tracemalloc.start()
    try:
        output = decode_model(model, wide, log_mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = (output.log_probs.data.nbytes + output.ratios.data.nbytes
               + output.segments.nbytes)
    assert peak - outputs < mask_bytes
