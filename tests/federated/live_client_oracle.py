"""Live-client oracle for the shard + arena client substrate.

This is the original client model: ``N`` persistent
:class:`FederatedClient` objects, each owning its model, optimiser and
batch-shuffle generator for the whole run, trained in place one after
another.  :class:`LiveClientRunner` injects that model into a
:class:`FederatedTrainer` through its ``runner=`` seam.  It never reads
``task.session``: its clients' own state is the truth, a retry rewinds
from the runner's own pre-round snapshot, and a finally-failed client
is restored to it.  Results carry the trained session and the exact
float64 parameters, so the trainer's shards mirror the live clients.

A run through the trainer's own arena must agree with a run through
this runner bit for bit: round histories, the global vector, and every
client's parameters and RNG state.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.distill import MetaKnowledgeDistiller
from repro.federated import (
    ClientFailure,
    ClientFaultError,
    FederatedClient,
    FederatedTrainer,
    RetryPolicy,
    RoundExecution,
    RoundResult,
    RoundRunner,
    WorkerSetup,
    decode_payload,
    resolve_fault_plan,
)
from repro.federated.runner import (
    _apply_post_fault,
    _encode_upload,
    _inject_pre_train,
)
from repro.nn.flatten import FlatParameterSpace


class LiveClientRunner(RoundRunner):
    """In-process rounds against ``N`` persistent live clients."""

    def __init__(self, setup: WorkerSetup, seed: int):
        self.setup = setup
        self.clients = [
            FederatedClient(
                client_id=i, data=data, model=setup.model_factory(),
                mask_builder=setup.mask_builder, training=setup.training,
                rng=np.random.default_rng(seed + 101 + i),
            )
            for i, data in enumerate(setup.client_data)
        ]
        self.distiller: MetaKnowledgeDistiller | None = None
        self.teacher_space: FlatParameterSpace | None = None

    def _distiller(self, teacher_flat: np.ndarray | None
                   ) -> MetaKnowledgeDistiller | None:
        if teacher_flat is None:
            return None
        if self.distiller is None:
            teacher = self.setup.model_factory()
            self.teacher_space = FlatParameterSpace.from_module(teacher)
            self.distiller = MetaKnowledgeDistiller(
                teacher, self.setup.mask_builder, lambda0=self.setup.lambda0,
                lt=self.setup.lt, dynamic=self.setup.dynamic_lambda,
            )
        self.teacher_space.set_flat(teacher_flat)
        return self.distiller

    def _attempt(self, client: FederatedClient, task, attempt: int,
                 deadline: float | None) -> RoundResult:
        assert not task.use_setup_teacher, "inject with a teacher-free setup"
        plan = self.setup.fault_plan
        fault = _inject_pre_train(plan, task, attempt, deadline)
        client.receive_global_flat(decode_payload(task.global_flat))
        flat, metrics = client.local_train_flat(
            task.epochs, self._distiller(task.teacher_flat))
        upload, nbytes, _ = _encode_upload(task, client, flat)
        upload, _, delay = _apply_post_fault(plan, task, attempt, fault,
                                             upload)
        return RoundResult(task.client_id, upload, metrics,
                           client.session_state(),
                           client.flat_parameters(dtype=np.float64),
                           payload_bytes=nbytes, straggler_delay=delay)

    def run_round_tolerant(self, tasks, policy: RetryPolicy | None = None
                           ) -> RoundExecution:
        policy = policy if policy is not None else RetryPolicy()
        execution = RoundExecution(results=[])
        for task in tasks:
            client = self.clients[task.client_id]
            saved_session = client.session_state()
            saved_params = client.flat_parameters(dtype=np.float64)
            attempt = 0
            while True:
                try:
                    execution.results.append(
                        self._attempt(client, task, attempt, policy.deadline))
                    break
                except ClientFaultError as exc:
                    client.load_session_state(saved_session)
                    client.receive_global_flat(saved_params)
                    if attempt < policy.retries:
                        attempt += 1
                        if policy.backoff:
                            time.sleep(policy.backoff * attempt)
                        continue
                    execution.failures.append(ClientFailure(
                        task.client_id, exc.kind, attempt + 1, exc.message))
                    break
            if attempt:
                execution.retry_counts[task.client_id] = attempt
        return execution


def live_trainer(model_factory, client_data, mask_builder, config,
                 global_test, seed: int = 0
                 ) -> tuple[FederatedTrainer, LiveClientRunner]:
    """A trainer whose rounds run on a :class:`LiveClientRunner`."""
    setup = WorkerSetup(
        model_factory=model_factory, client_data=tuple(client_data),
        mask_builder=mask_builder, training=config.training,
        lambda0=config.lambda0, lt=config.lt,
        dynamic_lambda=config.dynamic_lambda,
        fault_plan=resolve_fault_plan(config.fault_plan),
    )
    runner = LiveClientRunner(setup, seed)
    trainer = FederatedTrainer(model_factory, client_data, mask_builder,
                               config, global_test, seed=seed, runner=runner)
    return trainer, runner
