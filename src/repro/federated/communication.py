"""Communication-cost accounting and the exchange codec layer.

The paper argues communication cost correlates with model parameters
and FLOPs [40, 41]; this module meters the actual bytes shipped each
round (server -> selected clients and back) so the efficiency
experiments (Figure 5) can report measured traffic per method — and
provides the pluggable **exchange codecs** that shrink those bytes.

Exchange codecs
---------------
A :class:`Codec` turns a flat float64 ``(P,)`` parameter vector into a
picklable wire payload and back:

``identity``
    The payload *is* the float64 flat vector — the pre-codec behaviour,
    bitwise unchanged.
``float32``
    The payload carries float32 values: half the bytes of float64,
    decoded back to float64 server-side.  This is the only float32
    wire.
``int8`` / ``int8-nofb``
    QSGD-style 8-bit quantisation: the vector is split into fixed-size
    chunks, each scaled by its absmax (``scale = absmax / 127``) and
    rounded to ``int8``; the payload ships the int8 values plus one
    float32 scale per chunk (~4.5x fewer bytes than float32 overall).
    ``int8`` additionally enables **error feedback**: the encoder keeps
    the quantisation residual (``compensated - decoded``) and adds it
    to the next round's vector, so quantisation noise cancels across
    rounds instead of accumulating.  ``int8-nofb`` is the ablation
    without the residual.

Encoding is a pure function of the input vector (and the carried
residual), so serial and process-pool rounds encode bit-identically.
:func:`payload_num_bytes` accounts the *full* wire size of a payload —
quantised values, scale metadata, and a fixed per-payload header — so
the ledger reports real traffic, not just raw array ``nbytes``.

The ``REPRO_EXCHANGE_CODEC`` environment knob (used by the CI
``tier1-int8-exchange`` leg) forces a codec onto every trainer that was
not given an explicit one, mirroring ``REPRO_COMPUTE_DTYPE``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..nn.serialization import state_dict_num_bytes

__all__ = [
    "RoundCost", "CommunicationLedger", "payload_num_bytes",
    "PAYLOAD_HEADER_BYTES", "EncodedPayload", "Codec", "IdentityCodec",
    "Float32Codec", "Int8Codec", "codec_by_name", "available_codecs",
    "decode_payload", "encode_with_feedback", "get_exchange_codec",
    "set_exchange_codec", "use_exchange_codec", "forced_codec_from_env",
    "resolve_exchange_codec",
]

#: Fixed per-payload framing overhead (codec id, vector length, chunk
#: size, checksum) accounted for every encoded payload.  Raw ndarray
#: payloads (the identity codec) are metered as bare ``nbytes`` so the
#: pre-codec ledger numbers are reproduced exactly.
PAYLOAD_HEADER_BYTES = 16


# ----------------------------------------------------------------------
# wire payloads and codecs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EncodedPayload:
    """A codec-encoded flat parameter vector, ready for the wire.

    Cheap to pickle (two contiguous arrays + scalars); ships on the
    existing :class:`~repro.federated.runner.RoundTask` /
    :class:`~repro.federated.runner.RoundResult` contract wherever a
    flat vector used to travel.
    """

    codec: str  # registry name of the codec that encoded it
    values: np.ndarray  # quantised / cast values, one per parameter
    scales: np.ndarray | None  # per-chunk float32 scales (None = unscaled)
    size: int  # P, the decoded vector length
    chunk: int = 0  # quantisation chunk length (0 = whole vector)


class Codec:
    """Encodes flat float64 ``(P,)`` vectors for the wire.

    ``error_feedback`` marks codecs whose callers should carry the
    quantisation residual across rounds (see
    :func:`encode_with_feedback`); ``is_identity`` marks the pass-through
    codec whose payloads are bare float64 ndarrays.
    """

    name: str = ""
    error_feedback: bool = False
    is_identity: bool = False

    def encode(self, flat: np.ndarray) -> "np.ndarray | EncodedPayload":
        raise NotImplementedError

    def decode(self, payload: "np.ndarray | EncodedPayload") -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class IdentityCodec(Codec):
    """Pass-through: the wire payload is the flat vector itself."""

    name = "identity"
    is_identity = True

    def encode(self, flat: np.ndarray) -> np.ndarray:
        return np.asarray(flat)

    def decode(self, payload) -> np.ndarray:
        return np.asarray(payload)


class Float32Codec(Codec):
    """Cast to float32 on the wire, decode back to float64."""

    name = "float32"

    def encode(self, flat: np.ndarray) -> EncodedPayload:
        values = np.asarray(flat, dtype=np.float64).astype(np.float32)
        return EncodedPayload(codec=self.name, values=values, scales=None,
                              size=int(values.size))

    def decode(self, payload: EncodedPayload) -> np.ndarray:
        return payload.values.astype(np.float64)


class Int8Codec(Codec):
    """Per-chunk absmax int8 quantisation (QSGD-style).

    The vector is split into ``chunk``-length blocks; each block is
    scaled by ``absmax / 127`` (stored as one float32 per block) and
    rounded to the nearest int8 level.  Quantisation and reconstruction
    both use the float32-rounded scale, so ``decode(encode(x))`` is a
    pure deterministic function of ``x``.
    """

    def __init__(self, name: str = "int8", chunk: int = 64,
                 error_feedback: bool = True):
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.name = name
        self.chunk = chunk
        self.error_feedback = error_feedback

    def encode(self, flat: np.ndarray) -> EncodedPayload:
        exact = np.asarray(flat, dtype=np.float64).ravel()
        if not np.all(np.isfinite(exact)):
            raise ValueError("cannot int8-encode a non-finite vector; "
                             "screen uploads before encoding")
        size = int(exact.size)
        num_chunks = max(1, -(-size // self.chunk))
        padded = np.zeros(num_chunks * self.chunk, dtype=np.float64)
        padded[:size] = exact
        blocks = padded.reshape(num_chunks, self.chunk)
        absmax = np.abs(blocks).max(axis=1)
        # Zero blocks get scale 1.0: they quantise (and decode) to zero.
        scales = np.where(absmax > 0.0, absmax / 127.0, 1.0).astype(np.float32)
        levels = np.rint(blocks / scales.astype(np.float64)[:, None])
        values = np.clip(levels, -127, 127).astype(np.int8).reshape(-1)[:size]
        return EncodedPayload(codec=self.name, values=values, scales=scales,
                              size=size, chunk=self.chunk)

    def decode(self, payload: EncodedPayload) -> np.ndarray:
        num_chunks = payload.scales.size
        padded = np.zeros(num_chunks * payload.chunk, dtype=np.float64)
        padded[:payload.size] = payload.values.astype(np.float64)
        blocks = padded.reshape(num_chunks, payload.chunk)
        decoded = blocks * payload.scales.astype(np.float64)[:, None]
        return decoded.reshape(-1)[:payload.size]


# ----------------------------------------------------------------------
# registry + the exchange-codec knob
# ----------------------------------------------------------------------
_CODECS: dict[str, Codec] = {}


def _register(codec: Codec) -> Codec:
    _CODECS[codec.name] = codec
    return codec


_register(IdentityCodec())
_register(Float32Codec())
_register(Int8Codec("int8", error_feedback=True))
_register(Int8Codec("int8-nofb", error_feedback=False))


def available_codecs() -> list[str]:
    """Registered codec names, sorted."""
    return sorted(_CODECS)


def codec_by_name(name: str) -> Codec:
    """Look up a registered codec (raises with the known names)."""
    codec = _CODECS.get(name)
    if codec is None:
        raise ValueError(
            f"unknown exchange codec {name!r}; available: "
            f"{', '.join(available_codecs())}")
    return codec


#: The active default codec name; ``None`` = not yet resolved, in which
#: case the ``REPRO_EXCHANGE_CODEC`` environment forcing (if any)
#: applies on first read.
_ACTIVE_CODEC: str | None = None


def forced_codec_from_env() -> str | None:
    """The codec name forced by ``REPRO_EXCHANGE_CODEC`` (None if unset)."""
    name = os.environ.get("REPRO_EXCHANGE_CODEC", "").strip()
    return name or None


def get_exchange_codec() -> Codec:
    """The process-default exchange codec (identity unless configured)."""
    global _ACTIVE_CODEC
    if _ACTIVE_CODEC is None:
        _ACTIVE_CODEC = forced_codec_from_env() or "identity"
        codec_by_name(_ACTIVE_CODEC)  # fail fast on a bad env value
    return codec_by_name(_ACTIVE_CODEC)


def set_exchange_codec(name: str) -> str:
    """Set the process-default codec; returns the previous name."""
    global _ACTIVE_CODEC
    previous = get_exchange_codec().name
    _ACTIVE_CODEC = codec_by_name(name).name
    return previous


@contextmanager
def use_exchange_codec(name: str):
    """Temporarily switch the process-default exchange codec."""
    previous = set_exchange_codec(name)
    try:
        yield codec_by_name(name)
    finally:
        set_exchange_codec(previous)


def resolve_exchange_codec(codec: "Codec | str | None") -> Codec:
    """Normalise a config-level codec value.

    Accepts an explicit :class:`Codec`, a registry name, or None — in
    which case the process default (itself seeded from the
    ``REPRO_EXCHANGE_CODEC`` forcing) applies.
    """
    if codec is None:
        return get_exchange_codec()
    if isinstance(codec, Codec):
        return codec
    if isinstance(codec, str):
        return codec_by_name(codec)
    raise TypeError(f"cannot interpret exchange codec {codec!r}")


def decode_payload(payload, out: np.ndarray | None = None) -> np.ndarray:
    """Decode a wire payload to a flat vector (ndarrays pass through).

    ``out`` — when given and shape/dtype-compatible — receives the
    decoded values in place and is returned, so hot decode loops (slab
    staging, arena hydration) can reuse one buffer instead of
    allocating a fresh ``(P,)`` vector per payload.  Decoding is
    bitwise identical either way: the same values land in ``out``.
    """
    if isinstance(payload, EncodedPayload):
        decoded = codec_by_name(payload.codec).decode(payload)
    else:
        decoded = np.asarray(payload)
    if out is not None:
        if out.shape != decoded.shape:
            raise ValueError(
                f"out buffer shape {out.shape} != payload shape "
                f"{decoded.shape}")
        np.copyto(out, decoded)
        return out
    return decoded


def encode_with_feedback(codec: Codec, flat: np.ndarray,
                         residual: np.ndarray | None = None):
    """Encode ``flat``, carrying the error-feedback residual.

    Returns ``(payload, decoded, new_residual)``: the wire payload, the
    float64 vector the receiver will reconstruct, and the residual to
    carry into the next round (None for codecs without error feedback).
    With error feedback the *compensated* vector ``flat + residual`` is
    encoded, and the new residual is what the wire still owes:
    ``compensated - decoded``.
    """
    exact = np.asarray(flat, dtype=np.float64)
    if not codec.error_feedback:
        payload = codec.encode(exact)
        return payload, codec.decode(payload), None
    compensated = exact if residual is None else exact + residual
    payload = codec.encode(compensated)
    decoded = codec.decode(payload)
    return payload, decoded, compensated - decoded


# ----------------------------------------------------------------------
# byte accounting
# ----------------------------------------------------------------------
def payload_num_bytes(payload) -> int:
    """Wire size of one model payload.

    * :class:`EncodedPayload`: the **full** encoded size — quantised
      values plus per-chunk scale metadata plus the fixed
      :data:`PAYLOAD_HEADER_BYTES` framing overhead;
    * flat ``np.ndarray`` (identity codec): raw ``nbytes``;
    * state dict: summed entry ``nbytes``.

    Both federated paths (rounds and the isolated "w/o FL" ablation)
    meter payloads through this function, so their numbers stay
    comparable across codecs.
    """
    if isinstance(payload, EncodedPayload):
        scale_bytes = 0 if payload.scales is None else int(payload.scales.nbytes)
        return PAYLOAD_HEADER_BYTES + int(payload.values.nbytes) + scale_bytes
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    return state_dict_num_bytes(payload)


@dataclass(frozen=True)
class RoundCost:
    """Traffic of one communication round."""

    round_index: int
    num_clients: int
    bytes_down: int  # server -> clients (global model broadcast)
    bytes_up: int  # clients -> server (local model uploads)

    @property
    def total_bytes(self) -> int:
        return self.bytes_down + self.bytes_up


@dataclass
class CommunicationLedger:
    """Accumulates per-round communication costs."""

    rounds: list[RoundCost] = field(default_factory=list)

    def record_round(self, round_index: int, global_state,
                     uploaded_states: list,
                     num_broadcast: int | None = None,
                     broadcast_bytes: int | None = None,
                     upload_bytes: Sequence[int] | None = None) -> RoundCost:
        """Record one round's broadcast + uploads and return its cost.

        ``global_state`` and each upload may be a state dict, a flat
        ``(P,)`` parameter vector, or an :class:`EncodedPayload`.
        ``num_broadcast`` is the number of clients the global model was
        *sent* to; it defaults to the number of uploads, which is exact
        only when every selected client survives the round — with
        partial aggregation, failed clients still received the
        broadcast, so pass the selected count explicitly.

        Callers that already know the measured wire sizes (the async
        trainer meters payloads at encode time, before decoding for
        aggregation) pass ``broadcast_bytes`` (per recipient) and
        ``upload_bytes`` (one entry per accepted upload) explicitly;
        ``global_state``/``uploaded_states`` are then ignored for byte
        accounting.
        """
        if upload_bytes is not None:
            up = int(sum(upload_bytes))
            num_uploads = len(upload_bytes)
        else:
            up = sum(payload_num_bytes(s) for s in uploaded_states)
            num_uploads = len(uploaded_states)
        if num_broadcast is None:
            num_broadcast = num_uploads
        per_client_down = (broadcast_bytes if broadcast_bytes is not None
                           else payload_num_bytes(global_state))
        cost = RoundCost(
            round_index=round_index,
            num_clients=num_uploads,
            bytes_down=per_client_down * num_broadcast,
            bytes_up=up,
        )
        self.rounds.append(cost)
        return cost

    @property
    def total_bytes(self) -> int:
        """All traffic across all rounds."""
        return sum(r.total_bytes for r in self.rounds)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def bytes_per_round(self) -> float:
        """Mean traffic per round (0.0 when nothing recorded)."""
        if not self.rounds:
            return 0.0
        return self.total_bytes / len(self.rounds)
