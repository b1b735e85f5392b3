"""One entry point for every recovery-inference call site.

:func:`decode_model` is how the rest of the repo runs autoregressive
recovery: :meth:`TrajectoryRecovery.predict_batch`,
:func:`~repro.metrics.evaluation.evaluate_model`, and the federated
loop's accuracy gates (:func:`~repro.core.training.model_segment_accuracy`)
all route through it instead of calling ``model(batch, log_mask,
teacher_forcing=False)`` directly.  When packed decode is enabled
(:func:`repro.nn.use_packed_decode`, default on) and the model builds a
decode program, inference runs through the
:class:`~repro.serving.engine.DecodeSession` engine with each row
decoded only to its true length; otherwise it falls back to the model's
own padded full-length decode, so models without a program (e.g. the
non-autoregressive FC baseline) keep working unchanged.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from .engine import DecodeSession, EmissionPolicy

__all__ = ["decode_model", "batch_lengths", "fastapi_available", "create_app"]


def batch_lengths(batch) -> np.ndarray:
    """Per-row valid decode lengths of a padded batch (``tgt_mask`` row
    sums; valid steps are a prefix by the collation contract)."""
    return batch.tgt_mask.sum(axis=1).astype(np.int64)


def decode_model(model, batch, log_mask, *, decode_batch: int | None = None,
                 policy: EmissionPolicy | None = None):
    """Autoregressive recovery inference through the shared engine.

    Parameters
    ----------
    model:
        Any :class:`~repro.core.base.RecoveryModel`.  Callers are
        expected to have put it in eval mode; gradients are disabled
        here.
    batch:
        The padded :class:`~repro.data.dataset.Batch`.
    log_mask:
        Constraint mask — dense array or
        :class:`~repro.core.mask.SparseConstraintMask`, typically from
        :meth:`ConstraintMaskBuilder.build_for`.
    decode_batch:
        Maximum trajectories stepped together per working set (``None``
        = all at once); the serving-side memory/latency knob.
    policy:
        Emission policy override (default greedy).

    Returns a :class:`~repro.core.base.ModelOutput`.  Valid timesteps
    match the padded engine decode bit-for-bit for any
    ``decode_batch >= 2`` (see the engine's determinism contract for
    the one-row caveat); steps beyond a row's length are zero-filled —
    consumers never read them.
    """
    from ..core.base import ModelOutput  # core imports serving at load time

    with nn.no_grad():
        program = (model.decode_program(batch, log_mask)
                   if nn.packed_decode_enabled() else None)
        if program is None:
            return model(batch, log_mask, teacher_forcing=False)
        session = DecodeSession(policy=policy, decode_batch=decode_batch)
        result = session.run(program, batch, lengths=batch_lengths(batch))
    return ModelOutput(log_probs=nn.Tensor(result.log_probs),
                       ratios=nn.Tensor(result.ratios),
                       segments=result.segments)


def fastapi_available() -> bool:
    """True when :mod:`fastapi` is importable.

    FastAPI is an optional dependency, never a hard one — tier-1 runs
    hermetically with it absent, and the in-process
    :class:`~repro.serving.DecodeService` carries the full contract.
    """
    try:
        import fastapi  # noqa: F401
    except ImportError:
        return False
    return True


def create_app(service, prepare):
    """Build the optional FastAPI app over a :class:`DecodeService`.

    Parameters
    ----------
    service:
        A running :class:`~repro.serving.DecodeService`.
    prepare:
        ``prepare(payload) -> (batch, log_mask)`` — maps one POSTed
        JSON payload to a model batch and its constraint mask.  Batch
        construction is deployment-specific (road network, grid, and
        mask builder live server-side), so the app takes it as a
        callable instead of guessing a wire format.

    Routes: ``GET /healthz`` (liveness + :attr:`DecodeService.stats`)
    and ``POST /decode`` (body forwarded to ``prepare``; optional
    ``timeout`` key becomes the request's admission deadline).  Queue
    backpressure maps to HTTP 503, a missed deadline to 504.

    Raises :class:`RuntimeError` when FastAPI is not installed —
    callers gate on :func:`fastapi_available`.
    """
    if not fastapi_available():
        raise RuntimeError(
            "fastapi is not installed; the HTTP front-end is optional — "
            "use repro.serving.DecodeService in-process instead")
    from fastapi import FastAPI, HTTPException

    # Deferred: api is imported by the scheduler, so the service/
    # scheduler modules can only be imported lazily from here.
    from .scheduler import DeadlineExceededError
    from .service import QueueFullError, ServiceClosedError

    app = FastAPI(title="trajectory-recovery", docs_url=None, redoc_url=None)

    @app.get("/healthz")
    def healthz() -> dict:
        return {"status": "ok", **service.stats}

    @app.post("/decode")
    def decode(payload: dict) -> dict:
        batch, log_mask = prepare(payload)
        timeout = payload.get("timeout")
        try:
            handle = service.submit(batch, log_mask, timeout=timeout)
        except QueueFullError as error:
            raise HTTPException(status_code=503, detail=str(error))
        except ServiceClosedError as error:
            raise HTTPException(status_code=503, detail=str(error))
        try:
            result = service.result(handle)
        except DeadlineExceededError as error:
            raise HTTPException(status_code=504, detail=str(error))
        return {
            "handle": result.handle,
            "segments": result.segments.tolist(),
            "ratios": result.ratios.tolist(),
            "steps": result.steps,
            "work_rows": result.work_rows,
            "decode_flops": result.decode_flops,
        }

    return app
