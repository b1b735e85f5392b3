"""Client state as flat shards, trained through a bounded model arena.

At thousand-client scale a live-object client model breaks down: every
:class:`~repro.federated.client.FederatedClient` permanently owns a
full model, a :class:`~repro.core.training.LocalTrainer` (with ~6
``(P,)`` float64 Adam/optimiser buffers), and a
:class:`~repro.nn.flatten.FlatParameterSpace`.  A federation of ``N``
clients therefore costs ``O(N * P)`` memory even though only the
sampled fraction trains each round.

This module makes client count a *data-size* problem instead; it is
the only client substrate :class:`~repro.federated.trainer.FederatedTrainer`
has:

:class:`ClientShard`
    The whole persistent identity of one client, as flat vectors: its
    private data splits plus the session snapshot the round runners
    already ship (:class:`~repro.federated.client.ClientSessionState`
    — batch-shuffle RNG, flat optimiser moments, model dropout
    generator states, codec error-feedback residual) and its exact
    float64 parameters *if they ever diverged from the pristine
    factory initialisation* (``None`` until the client first trains —
    untrained shards cost almost nothing).

:class:`ModelArena`
    A bounded pool of reusable model/trainer instances.  When a client
    is sampled into a round or wave, a slot is checked out, rebound to
    the client's id and data, hydrated from the shard via
    ``set_flat``/``load_state_flat`` (the same two calls the pool
    workers have always made), and returned after the upload.  Peak
    live-model count is the arena size, not the federation size.

:class:`LazyClientList`
    A read-only sequence view that materialises a fresh
    :class:`FederatedClient` from a shard on demand, so result
    consumers (``result.clients[i].test_accuracy()``) keep working
    unchanged.

Bitwise contract
----------------
A shard-backed run is **bit-identical** to ``N`` persistent live
clients (the live-client oracle in ``tests/federated``): hydration is
exactly the session-restore path the process-pool workers use, the
pristine parameter/session template reproduces a freshly built
client's deterministic ``model_factory()`` + zeroed-optimiser state,
and each shard's initial RNG state is ``default_rng(seed + 101 + i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.base import RecoveryModel
from ..core.mask import ConstraintMaskBuilder
from ..core.training import TrainingConfig
from .client import ClientData, ClientSessionState, FederatedClient

__all__ = ["ClientShard", "ModelArena", "LazyClientList"]


@dataclass
class ClientShard:
    """One client's persistent identity between rounds (no live model).

    ``params_flat is None`` means the client still holds the pristine
    factory-initialised parameters (it has never trained), so the
    federation's untrained majority shares one parameter vector — the
    arena's pristine template — instead of owning ``N`` copies.
    """

    client_id: int
    data: ClientData
    session: ClientSessionState
    params_flat: np.ndarray | None = None  # exact float64; None = pristine


class ModelArena:
    """A bounded pool of reusable model/trainer slots.

    Slots are built lazily (the first checkout builds the first slot)
    and rebound on every checkout: the slot's
    :class:`FederatedClient` gets the sampled client's id and data,
    and the caller hydrates parameters and session state from the
    shard.  Because every checkout fully overwrites parameters
    (global broadcast or shard params) *and* mutable training state
    (session restore), state can never bleed between clients sharing
    a slot — the same argument that makes pool workers reusable.
    """

    def __init__(self, model_factory: Callable[[], RecoveryModel],
                 mask_builder: ConstraintMaskBuilder,
                 training: TrainingConfig, size: int = 1):
        if size < 1:
            raise ValueError("arena size must be >= 1")
        self.model_factory = model_factory
        self.mask_builder = mask_builder
        self.training = training
        self.size = size
        self._slots: list[FederatedClient] = []
        self._free: list[FederatedClient] = []
        self._pristine_params: np.ndarray | None = None
        self._pristine_session: ClientSessionState | None = None
        self._warmed: set[int] = set()

    # ------------------------------------------------------------------
    # pristine template
    # ------------------------------------------------------------------
    @property
    def pristine_params(self) -> np.ndarray:
        """Exact float64 parameters of a freshly built model (the state
        every untrained shard implicitly holds)."""
        if self._pristine_params is None:
            raise RuntimeError("arena has no slot yet; call template() "
                               "or checkout() first")
        return self._pristine_params

    @property
    def pristine_session(self) -> ClientSessionState:
        """Session template of a freshly built client: zeroed optimiser
        moments, construction-time model RNG states, no codec residual.
        The ``rng_state`` is a placeholder — shard builders replace it
        with the client's own seeded batch-shuffle generator state."""
        if self._pristine_session is None:
            raise RuntimeError("arena has no slot yet; call template() "
                               "or checkout() first")
        return self._pristine_session

    def template(self, data: ClientData
                 ) -> tuple[np.ndarray, ClientSessionState]:
        """Build the first slot (if needed) and return the pristine
        ``(params, session)`` template.  ``data`` is only used to
        satisfy the client constructor; the slot is rebound before any
        real execution."""
        if self._pristine_params is None:
            slot = self._new_slot(0, data)
            self._slots.append(slot)
            self._free.append(slot)
        return self.pristine_params, self.pristine_session

    def _new_slot(self, client_id: int, data: ClientData) -> FederatedClient:
        client = FederatedClient(
            client_id=client_id, data=data, model=self.model_factory(),
            mask_builder=self.mask_builder, training=self.training,
            rng=np.random.default_rng(0),  # replaced by the session restore
        )
        if self._pristine_params is None:
            # Captured before any training touches the slot: the factory
            # is deterministic, so this is the parameter vector every
            # client starts from.
            self._pristine_params = client.flat_parameters(dtype=np.float64)
            self._pristine_session = client.session_state()
        return client

    # ------------------------------------------------------------------
    # checkout / checkin
    # ------------------------------------------------------------------
    @property
    def live_slots(self) -> int:
        """Slots built so far (the arena's actual model count)."""
        return len(self._slots)

    def checkout(self, client_id: int, data: ClientData) -> FederatedClient:
        """Borrow a slot rebound to ``client_id``/``data``.

        The caller must fully hydrate it (broadcast or shard params +
        session restore) before training, and :meth:`checkin` it when
        done — including on failure paths, so a fault never leaks a
        slot."""
        if client_id not in self._warmed:
            # Warm the mask builder's sparse row pool once per client
            # dataset, exactly like the pool-worker initialisation.
            self.mask_builder.warm(data.train)
            self._warmed.add(client_id)
        if self._free:
            client = self._free.pop()
        elif len(self._slots) < self.size:
            client = self._new_slot(client_id, data)
            self._slots.append(client)
        else:
            raise RuntimeError(
                f"model arena exhausted: all {self.size} slot(s) are "
                f"checked out (raise FederatedConfig.arena_size)")
        client.client_id = client_id
        client.data = data
        return client

    def checkin(self, client: FederatedClient) -> None:
        """Return a checked-out slot to the free pool."""
        self._free.append(client)

    def models(self):
        """The live slot models (for in-place dtype alignment)."""
        return [slot.model for slot in self._slots]


class LazyClientList(Sequence):
    """Read-only ``trainer.clients`` view over shards.

    Indexing materialises a *fresh* :class:`FederatedClient` hydrated
    from the shard (current parameters + session), so inspection-style
    consumers — accuracy probes, parameter snapshots, codec residual
    checks — see exactly the client's state after its last round.
    Mutations to a materialised client are **not** written back to the
    shard.
    """

    def __init__(self, trainer):
        self._trainer = trainer

    def __len__(self) -> int:
        return len(self._trainer.shards)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = range(len(self))[index]  # normalise negatives, bound-check
        return self._trainer._materialize_client(index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LazyClientList({len(self)} shards)"
