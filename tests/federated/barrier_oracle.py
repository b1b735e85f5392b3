"""Barrier-round oracle for the trainer's one wave loop.

This is the original synchronous round: select a client fraction,
broadcast, run the cohort, screen each upload's shape and dtype, stage
the survivors into the aggregation slab, validate the slab, privatise,
and aggregate once when quorum holds.  :class:`BarrierOracleTrainer`
runs it in place of :meth:`FederatedTrainer._run_wave`, so everything
around the round (teacher, runners, shards, checkpoints) is shared.

A synchronous run (``async_buffer == 0``) through the wave loop must
agree with a run through this oracle bit for bit: round histories,
ledger rounds, the global vector, and every shard's parameters.
"""

from __future__ import annotations

import numpy as np

from repro.core.training import model_segment_accuracy
from repro.federated import (
    ClientFailure,
    CommunicationLedger,
    FederatedServer,
    FederatedTrainer,
    RoundRecord,
)


def screen_upload(server: FederatedServer, vector) -> str | None:
    """The pre-slab shape and dtype half of upload validation (a
    wrong-shaped vector cannot be staged into a slab row at all)."""
    arr = np.asarray(vector)
    expected = server.num_parameters
    if arr.shape != (expected,):
        return f"shape {arr.shape} != ({expected},)"
    if not np.issubdtype(arr.dtype, np.floating):
        return f"non-float dtype {arr.dtype}"
    return None


class BarrierOracleTrainer(FederatedTrainer):
    """A trainer whose every wave is the original barrier round."""

    def _run_wave(self, wave: int, ledger: CommunicationLedger) -> RoundRecord:
        assert self.config.async_buffer == 0, "the oracle is barrier-only"
        return self._run_round(wave, ledger)

    def _run_round(self, round_index: int,
                   ledger: CommunicationLedger) -> RoundRecord:
        selected = self.server.select_clients(
            len(self.clients), self.config.client_fraction, self._rng
        )
        # The whole exchange moves flat (P,) vectors: broadcast, upload,
        # privatisation, and the stacked (C, P) average.
        wire, reference, bytes_down = self._broadcast_payload()
        runner = self._get_runner()
        tasks = self._build_tasks(selected, wire, round_index)
        execution, fallback_cause = self._execute_tasks(runner, tasks)

        failures = list(execution.failures)
        results = execution.results  # task (= ascending client-id) order
        upload_bytes: list[int] = []
        weights: list[float] = []
        losses: list[float] = []
        lambdas: list[float] = []
        completed: list[int] = []
        # Stage uploads into the preallocated slab: each screened
        # payload is cast into one float64 row, so finiteness/norm
        # validation and the FedAvg reduction run over a single
        # contiguous (C, P) matrix — bitwise the stack-of-vectors path,
        # without C boxed float64 copies.  Trained state is adopted
        # even when the upload is rejected below — the client trained
        # fine, only its wire payload is bad.
        rows = self._slab.rows(len(results))
        staged = []  # results whose uploads occupy rows[:len(staged)]
        for result in results:
            self._adopt_result(result)
            rejection = screen_upload(self.server, result.upload_flat)
            if rejection is not None:
                failures.append(ClientFailure(result.client_id, "rejected", 1,
                                              rejection))
                continue
            rows[len(staged)] = result.upload_flat  # exact float64 cast
            staged.append(result)
        reasons = self.server.validate_rows(rows[:len(staged)],
                                            self.config.max_upload_norm)
        kept = 0
        for row, (result, reason) in enumerate(zip(staged, reasons)):
            if reason is not None:
                failures.append(ClientFailure(result.client_id, "rejected", 1,
                                              reason))
                continue
            if self.privatizer is not None:
                # Privatise from the original upload object — identical
                # RNG stream and dtype path to the per-vector era —
                # then overwrite the (compacted) slab row.
                rows[kept] = self.privatizer.privatize_update_flat(
                    result.upload_flat, reference)
            elif kept != row:
                rows[kept] = rows[row]  # compact over rejected rows
            upload_bytes.append(self._upload_bytes(result))
            completed.append(result.client_id)
            weights.append(result.metrics["num_examples"])
            losses.append(result.metrics["loss"])
            lambdas.append(result.metrics["lambda"])
            kept += 1
        failures.sort(key=lambda failure: failure.client_id)

        aggregated = kept >= self.config.min_clients_per_round
        if aggregated:
            agg_weights = weights if self.config.aggregation == "fedavg" else None
            # FedAvg weights renormalise over the survivors automatically
            # (np.average divides by the surviving weight mass).
            self.server.aggregate_rows(rows[:kept], agg_weights)
            accuracy = model_segment_accuracy(
                self.server.global_model, self.mask_builder, self.global_test
            )
            self._last_accuracy = accuracy
            mean_loss = float(np.mean(losses))
            mean_lambda = float(np.mean(lambdas))
        else:
            # Quorum failed: hold the global vector, skip aggregation,
            # and record NaN-free sentinel statistics (np.mean over an
            # empty survivor list would be NaN).
            accuracy = self._held_accuracy()
            mean_loss = 0.0
            mean_lambda = 0.0
        # Every selected client received the broadcast, even the ones
        # that failed to upload.  (upload_bytes already carries the
        # measured wire sizes; the staged vectors need not be passed.)
        ledger.record_round(round_index, wire, [],
                            num_broadcast=len(selected),
                            broadcast_bytes=bytes_down,
                            upload_bytes=upload_bytes)

        return RoundRecord(
            round_index=round_index,
            selected_clients=tuple(selected),
            mean_loss=mean_loss,
            mean_lambda=mean_lambda,
            global_accuracy=accuracy,
            completed_clients=tuple(completed),
            failures=tuple(failures),
            retries=tuple(sorted(execution.retry_counts.items())),
            aggregated=aggregated,
            fallback_cause=fallback_cause,
        )
