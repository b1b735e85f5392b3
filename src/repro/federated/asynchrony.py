"""Asynchronous federated rounds: simulated latency + buffered aggregation.

At thousand-client scale a synchronous round is paced by its slowest
client: every upload waits at the barrier until the last straggler
lands.  The async mode replaces the barrier with a FedBuff-style
**buffered aggregator**: uploads are applied as they arrive, the global
model advances every ``K`` arrivals (one *flush*), and an upload that
trained against an old global version is down-weighted by its
staleness — ``weight ∝ base / (1 + staleness)^α`` — so late arrivals
still contribute without dragging the model backwards.

Determinism contract
--------------------
Wall-clock time never enters the simulation.  Client latency is drawn
from a :class:`LatencyModel` as a **pure function** of
``(seed, wave, client)`` — the same keyed-generator idiom as
:class:`~repro.federated.faults.FaultPlan` — and arrivals are processed
in ``(virtual arrival time, client id)`` order.  Consequently serial
and process-pool execution produce bit-identical async histories: the
pool changes *real* completion order, which the virtual clock ignores.

The trainer owns the wave loop; this module holds the deterministic
pieces — the latency draws, the staleness weighting, and the picklable
:class:`AsyncAggregatorState` that a checkpoint carries so a killed
async run resumes bit-identically (in-flight uploads included).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "LatencySpec", "LatencyModel", "resolve_latency_model",
    "PendingUpload", "AsyncAggregatorState", "staleness_weights",
]


@dataclass(frozen=True)
class LatencySpec:
    """Parameters of the simulated per-upload network/compute latency.

    An upload dispatched at wave ``w`` to client ``c`` arrives
    ``base + jitter * u`` virtual seconds later, where ``u`` is drawn
    uniformly from ``[0, 1)`` by a generator keyed on
    ``(seed, wave, client)``.  With probability ``heavy`` the draw is a
    heavy-tail straggler and the latency is multiplied by
    ``heavy_factor`` — the knob that makes "straggler-heavy" async
    schedules reproducible.
    """

    seed: int = 0
    base: float = 1.0
    jitter: float = 1.0
    heavy: float = 0.0  # probability of a heavy-tail draw
    heavy_factor: float = 10.0

    def __post_init__(self):
        if self.base < 0 or self.jitter < 0:
            raise ValueError("base and jitter must be non-negative")
        if not 0.0 <= self.heavy <= 1.0:
            raise ValueError("heavy must be a probability in [0, 1]")
        if self.heavy_factor < 1.0:
            raise ValueError("heavy_factor must be >= 1")


@dataclass(frozen=True)
class LatencyModel:
    """A seeded, deterministic latency schedule (pure draws)."""

    spec: LatencySpec

    def draw(self, wave: int, client_id: int) -> float:
        """Virtual seconds between dispatch and arrival for this upload."""
        spec = self.spec
        rng = np.random.default_rng((spec.seed, 3, wave, client_id))
        latency = spec.base + spec.jitter * float(rng.random())
        if spec.heavy and float(rng.random()) < spec.heavy:
            latency *= spec.heavy_factor
        return latency

    # -- spec-string round trip ---------------------------------------------
    _SPEC_KEYS = {
        "seed": ("seed", int),
        "base": ("base", float),
        "jitter": ("jitter", float),
        "heavy": ("heavy", float),
        "heavy_factor": ("heavy_factor", float),
    }

    @classmethod
    def from_spec(cls, text: str) -> "LatencyModel":
        """Parse ``"base=1,jitter=2,heavy=0.1,seed=7"`` into a model."""
        spec = LatencySpec()
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"latency item {item!r} is not key=value")
            key, _, value = item.partition("=")
            entry = cls._SPEC_KEYS.get(key.strip())
            if entry is None:
                raise ValueError(
                    f"unknown latency key {key.strip()!r}; expected one of "
                    f"{sorted(cls._SPEC_KEYS)}")
            field_name, cast = entry
            spec = replace(spec, **{field_name: cast(value.strip())})
        return cls(spec)

    def spec_string(self) -> str:
        """The ``from_spec`` form of this model (round-trips)."""
        spec = self.spec
        parts = [f"seed={spec.seed}", f"base={spec.base:g}",
                 f"jitter={spec.jitter:g}"]
        if spec.heavy:
            parts.append(f"heavy={spec.heavy:g}")
            parts.append(f"heavy_factor={spec.heavy_factor:g}")
        return ",".join(parts)


def resolve_latency_model(model: "LatencyModel | LatencySpec | str | None",
                          ) -> LatencyModel:
    """Normalise a config-level latency value (None = default spec)."""
    if model is None:
        return LatencyModel(LatencySpec())
    if isinstance(model, LatencyModel):
        return model
    if isinstance(model, LatencySpec):
        return LatencyModel(model)
    if isinstance(model, str):
        if not model.strip():
            return LatencyModel(LatencySpec())
        return LatencyModel.from_spec(model)
    raise TypeError(f"cannot interpret latency model {model!r}")


@dataclass
class PendingUpload:
    """One trained upload travelling (or buffered) in virtual time."""

    client_id: int
    arrival_time: float  # virtual seconds since the run started
    vector: np.ndarray  # validated upload as decoded off the wire (exchange
    # dtype, or float64 after a lossy codec); flushes cast it exactly
    base_weight: float  # FedAvg example count (or 1.0 for uniform)
    version: int  # global-model version the client trained against
    loss: float
    lam: float
    payload_bytes: int  # measured wire size of the encoded upload
    dispatch_wave: int  # wave index that dispatched it (telemetry)


@dataclass
class AsyncAggregatorState:
    """The mutable state of the buffered async aggregator.

    Picklable and checkpointed whole: a killed-and-resumed async run
    replays the identical arrival/flush schedule because the in-flight
    and buffered uploads — already-trained vectors — travel with it.
    """

    virtual_now: float = 0.0
    version: int = 0  # number of flushes applied to the global model
    in_flight: list[PendingUpload] = field(default_factory=list)
    buffer: list[PendingUpload] = field(default_factory=list)

    def busy_clients(self) -> set[int]:
        """Clients with an upload still travelling or buffered — they
        must not be re-sampled until their upload is applied."""
        return ({u.client_id for u in self.in_flight}
                | {u.client_id for u in self.buffer})

    def take_buffer(self) -> list[PendingUpload]:
        """Drain the buffer for one flush: returns the buffered uploads
        in arrival order and leaves the buffer empty."""
        entries, self.buffer = self.buffer, []
        return entries


def staleness_weights(base_weights, staleness, alpha: float) -> np.ndarray:
    """FedBuff-style aggregation weights: ``base / (1 + s)^alpha``.

    ``staleness`` counts the flushes the global model advanced between
    an upload's dispatch and its flush.  At ``alpha = 0`` the weights
    equal ``base_weights`` exactly — buffered aggregation degenerates
    to plain FedAvg over the buffer, which the async tests pin.
    """
    base = np.asarray(base_weights, dtype=np.float64)
    stale = np.asarray(staleness, dtype=np.float64)
    if base.shape != stale.shape:
        raise ValueError("base_weights and staleness must align")
    if np.any(stale < 0):
        raise ValueError("staleness must be non-negative")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if alpha == 0.0:
        return base.copy()
    return base / np.power(1.0 + stale, alpha)
