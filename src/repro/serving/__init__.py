"""Recovery serving layer: batched decode engine + continuous batching.

``DecodeSession`` (:mod:`repro.serving.engine`) packs ragged-length
trajectories into one compacted stepping loop, and its
:class:`LiveDecodeSet` admits new trajectories mid-flight; decode
programs (:mod:`repro.serving.programs`) adapt each model's step math
to it; :func:`decode_model` (:mod:`repro.serving.api`) is the entry
point the evaluation, recovery, and federated layers call; and the
serving stack — :class:`ContinuousBatcher`
(:mod:`repro.serving.scheduler`), :class:`DecodeService`
(:mod:`repro.serving.service`), and the optional FastAPI app
(:func:`create_app`) — turns the engine into a long-lived service.
See ``docs/PERFORMANCE.md`` for the engine knobs and determinism
contract and ``docs/SERVING.md`` for the service architecture.
"""

from .api import batch_lengths, create_app, decode_model, fastapi_available
from .engine import (
    DecodeSession,
    EmissionPolicy,
    GreedyEmission,
    LiveDecodeResult,
    LiveDecodeSet,
    MuxError,
    PackedDecodeResult,
)
from .programs import AttnDecodeProgram, StackedRNNDecodeProgram, STDecodeProgram
from .scheduler import (
    ContinuousBatcher,
    DeadlineExceededError,
    InvalidRequestError,
    RequestError,
    ServedResult,
)
from .service import DecodeService, QueueFullError, ServiceClosedError

__all__ = [
    "decode_model", "batch_lengths", "fastapi_available", "create_app",
    "DecodeSession", "EmissionPolicy", "GreedyEmission", "PackedDecodeResult",
    "LiveDecodeSet", "LiveDecodeResult", "MuxError",
    "STDecodeProgram", "StackedRNNDecodeProgram", "AttnDecodeProgram",
    "ContinuousBatcher", "ServedResult",
    "RequestError", "DeadlineExceededError", "InvalidRequestError",
    "DecodeService", "QueueFullError", "ServiceClosedError",
]
