"""A federated client (platform centre, paper Definition 7).

Each client owns a private train/valid/test split of its local
trajectories, a local recovery model, and a trainer.  During a round it
downloads the global parameters, optionally computes its adaptive
distillation weight against the shared teacher (Algorithm 2), trains
locally, and uploads its parameters.  Raw trajectories never leave the
client - only state dicts cross the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.base import RecoveryModel
from ..core.distill import MetaKnowledgeDistiller
from ..core.mask import ConstraintMaskBuilder
from ..core.training import LocalTrainer, TrainingConfig
from ..data.dataset import TrajectoryDataset
from ..nn.flatten import FlatParameterSpace

__all__ = ["ClientData", "ClientSessionState", "FederatedClient"]


@dataclass(frozen=True)
class ClientData:
    """A client's private data splits."""

    train: TrajectoryDataset
    valid: TrajectoryDataset
    test: TrajectoryDataset

    @property
    def num_train(self) -> int:
        return len(self.train)


@dataclass(frozen=True)
class ClientSessionState:
    """The round-to-round mutable training state of one client.

    Everything a worker process needs (beyond the broadcast parameters)
    to continue this client's local optimisation exactly where the
    previous round left off: the batch-shuffling generator state, the
    optimiser's flat moment buffers, the state of every stochastic
    forward-pass generator inside the model (dropout), and the
    exchange codec's error-feedback residual (the quantisation error
    the client still owes the wire).  Shipping this with each round
    task makes results independent of *which* worker executes the
    client, so serial and process-pool rounds are bit-identical.
    """

    rng_state: dict
    optimizer_state: dict
    model_rng_states: tuple[dict, ...] = ()
    codec_residual: np.ndarray | None = None


class FederatedClient:
    """One participant in the federation."""

    def __init__(self, client_id: int, data: ClientData, model: RecoveryModel,
                 mask_builder: ConstraintMaskBuilder, training: TrainingConfig,
                 rng: np.random.Generator):
        if data.num_train == 0:
            raise ValueError(f"client {client_id} has no training data")
        self.client_id = client_id
        self.data = data
        self.model = model
        self.trainer = LocalTrainer(model, mask_builder, training, rng)
        self._space = FlatParameterSpace.from_module(model)
        # Error-feedback residual of the uplink exchange codec: the
        # quantisation error carried into the next round's encode.
        # None until the first quantised upload.
        self.codec_residual: np.ndarray | None = None

    def receive_global(self, global_state: dict) -> None:
        """Download the server's parameters (Algorithm 3 line 4)."""
        self.model.load_state_dict(global_state)

    def receive_global_flat(self, global_flat: np.ndarray) -> None:
        """Download the server's parameters as one flat vector."""
        self._space.set_flat(global_flat)

    def _train_locally(self, epochs: int,
                       distiller: MetaKnowledgeDistiller | None
                       ) -> dict[str, float]:
        lam = 0.0
        if distiller is not None and len(self.data.valid) > 0:
            lam = distiller.lambda_for_client(self.model, self.data.valid)
        losses = self.trainer.train_epochs(self.data.train, epochs=epochs,
                                           distiller=distiller, lam=lam)
        return {
            "loss": float(np.mean(losses)),
            "lambda": lam,
            "num_examples": float(self.data.num_train),
        }

    def local_train(self, epochs: int,
                    distiller: MetaKnowledgeDistiller | None = None
                    ) -> tuple[dict, dict[str, float]]:
        """Meta-knowledge enhanced local training (Algorithm 2).

        Returns the uploaded state dict and a metrics dict containing
        the mean local loss and the lambda that was used.
        """
        metrics = self._train_locally(epochs, distiller)
        return self.model.state_dict(), metrics

    def local_train_flat(self, epochs: int,
                         distiller: MetaKnowledgeDistiller | None = None
                         ) -> tuple[np.ndarray, dict[str, float]]:
        """Like :meth:`local_train` but uploads one flat ``(P,)`` vector."""
        metrics = self._train_locally(epochs, distiller)
        return self._space.get_flat(), metrics

    def flat_parameters(self, dtype=np.float64) -> np.ndarray:
        """The current local parameters as one flat vector (an exact
        float64 copy unless ``dtype`` says otherwise)."""
        return self._space.get_flat(dtype=dtype)

    # ------------------------------------------------------------------
    # session state (parallel round runners)
    # ------------------------------------------------------------------
    def _model_generators(self) -> list[np.random.Generator]:
        """Distinct forward-pass generators inside the model (dropout),
        in module traversal order.  Layers typically share the single
        construction generator; deduplicate by object identity so a
        shared stream is snapshotted/restored exactly once."""
        generators: list[np.random.Generator] = []
        seen: set[int] = set()
        for module in self.model.modules():
            rng = getattr(module, "_rng", None)
            if isinstance(rng, np.random.Generator) and id(rng) not in seen:
                seen.add(id(rng))
                generators.append(rng)
        return generators

    def session_state(self) -> ClientSessionState:
        """Snapshot the mutable local-training state (copies)."""
        return ClientSessionState(
            rng_state=self.trainer.rng.bit_generator.state,
            optimizer_state=self.trainer.optimizer.state_flat(),
            model_rng_states=tuple(g.bit_generator.state
                                   for g in self._model_generators()),
            codec_residual=(None if self.codec_residual is None
                            else self.codec_residual.copy()),
        )

    def load_session_state(self, state: ClientSessionState) -> None:
        """Restore a :meth:`session_state` snapshot exactly."""
        self.trainer.rng.bit_generator.state = state.rng_state
        self.trainer.optimizer.load_state_flat(state.optimizer_state)
        generators = self._model_generators()
        if len(generators) != len(state.model_rng_states):
            raise ValueError(
                f"session snapshot has {len(state.model_rng_states)} model "
                f"generator states, model exposes {len(generators)}"
            )
        for generator, rng_state in zip(generators, state.model_rng_states):
            generator.bit_generator.state = rng_state
        self.codec_residual = (None if state.codec_residual is None
                               else state.codec_residual.copy())

    def validation_accuracy(self) -> float:
        """Segment accuracy on the client's validation split."""
        if len(self.data.valid) == 0:
            return 0.0
        return self.trainer.segment_accuracy(self.data.valid)

    def test_accuracy(self) -> float:
        """Segment accuracy on the client's test split."""
        if len(self.data.test) == 0:
            return 0.0
        return self.trainer.segment_accuracy(self.data.test)
