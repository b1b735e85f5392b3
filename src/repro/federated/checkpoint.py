"""Round-granular checkpoint/resume for federated training.

A long federated run should survive the process dying: with
``FederatedConfig(checkpoint_every=K, checkpoint_dir=...)`` the trainer
persists a :class:`FederatedCheckpoint` after every K-th completed
round, and ``resume_from=`` restarts a run from the latest (or a
specific) checkpoint file.

Bit-identical resume contract
-----------------------------
A resumed run must be indistinguishable from the uninterrupted one, so
a checkpoint captures *every* mutable input of the remaining rounds:

* the global flat parameter vector (exact float64 — never a codec's
  decoded wire vector);
* each client's exact float64 parameters and
  :class:`~repro.federated.client.ClientSessionState` (batch-shuffle
  RNG, flat optimiser moments, model dropout generator states);
* the trainer's client-selection RNG state;
* the frozen teacher's flat parameters (the worker-side distiller is
  rebuilt from this snapshot, so distillation continues exactly);
* the accumulated round history, communication ledger, the held
  accuracy of the last aggregated round, and the consecutive
  pool-failure count;
* the exchange codec's error-feedback residuals — the per-client
  uplink residuals ride inside each
  :class:`~repro.federated.client.ClientSessionState`, and the
  server's downlink residual is stored explicitly — so a resumed
  quantised run encodes the identical payload stream;
* the async aggregator's
  :class:`~repro.federated.asynchrony.AsyncAggregatorState` (virtual
  clock, flush count, in-flight and buffered uploads), so a killed
  async run replays the identical arrival/flush schedule.

Everything *immutable* — datasets, the road network, the model
architecture, the config — is deliberately **not** stored: the caller
reconstructs the same :class:`~repro.federated.trainer.FederatedTrainer`
(same seeds, same world) and the checkpoint only rewinds its mutable
state.  That keeps checkpoints small (a few parameter-vector copies)
and sidesteps pickling the whole world.

Format: one pickle per checkpoint, named ``round_<NNNN>.ckpt``, written
atomically (temp file + ``os.replace``) so a kill mid-write can never
leave a truncated latest checkpoint.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .asynchrony import AsyncAggregatorState
from .client import ClientSessionState

__all__ = ["FederatedCheckpoint", "checkpoint_path", "latest_checkpoint"]

#: Bump when the checkpoint layout changes incompatibly.
#: Version history:
#: 1 — synchronous-only state (PR 7).
#: 2 — adds the exchange codec's error-feedback residuals (per-client
#:     inside ClientSessionState + the server's downlink residual) and
#:     the async aggregator state.  Version-1 files lack both, so a
#:     resumed run could not reproduce the uninterrupted byte/flush
#:     stream — they are rejected with a clear error.
#: 3 — shard-backed clients: ``client_params`` entries may be
#:     ``None`` (a shard that never trained still holds the pristine
#:     factory parameters, so persisting ``N`` identical copies would
#:     defeat the shard memory model).  Version-2 files, and version-3
#:     files written by live-client runs (every parameter vector
#:     present, a since-removed ``lazy_clients`` attribute in the
#:     pickle), load into shards all the same.
CHECKPOINT_VERSION = 3


@dataclass
class FederatedCheckpoint:
    """The full mutable state of a federated run after ``next_round - 1``
    completed rounds (resume continues *at* ``next_round``)."""

    next_round: int
    global_flat: np.ndarray  # exact float64 global parameters
    client_sessions: tuple[ClientSessionState, ...]
    # Exact float64 per-client params; a ``None`` entry (version >= 3)
    # marks a shard still holding the pristine factory initialisation.
    client_params: "tuple[np.ndarray | None, ...]"
    trainer_rng_state: dict  # client-selection generator
    teacher_flat: np.ndarray | None
    history: list = field(default_factory=list)  # RoundRecord entries
    ledger_rounds: list = field(default_factory=list)  # RoundCost entries
    last_accuracy: float | None = None  # held accuracy for quorum-failed rounds
    pool_failures: int = 0  # consecutive whole-pool failures so far
    downlink_residual: np.ndarray | None = None  # server-side error feedback
    async_state: AsyncAggregatorState | None = None  # None = synchronous run
    version: int = CHECKPOINT_VERSION

    def save(self, path: str) -> str:
        """Atomically persist this checkpoint to ``path``."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str) -> "FederatedCheckpoint":
        with open(path, "rb") as handle:
            checkpoint = pickle.load(handle)
        if not isinstance(checkpoint, cls):
            raise ValueError(f"{path} is not a FederatedCheckpoint")
        if checkpoint.version not in (2, CHECKPOINT_VERSION):
            raise ValueError(
                f"checkpoint {path} has version {checkpoint.version}, "
                f"this build reads versions 2 and {CHECKPOINT_VERSION}")
        return checkpoint


def checkpoint_path(directory: str, next_round: int) -> str:
    """Canonical file name of the checkpoint taken before ``next_round``."""
    return os.path.join(directory, f"round_{next_round:04d}.ckpt")


def latest_checkpoint(path: str) -> str | None:
    """Resolve a resume target: a checkpoint file as-is, or the
    highest-round ``round_*.ckpt`` inside a directory (None if empty)."""
    if os.path.isfile(path):
        return path
    if not os.path.isdir(path):
        return None
    names = [name for name in os.listdir(path)
             if name.startswith("round_") and name.endswith(".ckpt")]
    if not names:
        return None
    return os.path.join(path, max(names))
