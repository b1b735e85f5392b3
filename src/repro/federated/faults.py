"""Deterministic fault injection for the federated runtime.

At thousands-of-clients scale, client failure is the common case, not
the exception: workers crash, uploads go missing, stragglers blow
through deadlines, and payloads arrive corrupted.  This module gives
the reproduction a *seeded, deterministic* model of those failures so
the degraded paths can be exercised — and asserted bit-identical
across execution backends — instead of rotting untested.

Determinism contract
--------------------
A :class:`FaultPlan` decides the fault (if any) for a given
``(round_index, client_id, attempt)`` as a **pure function** of those
coordinates and the plan's seed: the decision is drawn from a
generator seeded with exactly that key, never from a shared sequential
stream.  Consequently the same plan injects the *identical* fault
schedule under :class:`~repro.federated.runner.ArenaRunner` (the
in-process default) and
:class:`~repro.federated.runner.ProcessPoolRunner` — regardless of
worker count, pool scheduling, or completion order — which is what
keeps serial-vs-parallel round histories bit-identical under faults
(the PR 2 determinism contract, extended to degraded runs).

Fault kinds
-----------
``dropout``
    No-show: the client never starts its local round.
``crash``
    Crash-before-upload: the client trains locally (consuming RNG and
    optimiser state exactly like a healthy round) and dies before the
    upload leaves; a retry re-ships the same
    :class:`~repro.federated.runner.RoundTask`, whose session snapshot
    makes re-execution exact.
``straggler``
    The client is ``delay`` seconds slow.  When a per-task deadline is
    configured and the injected delay meets it, the task deterministically
    fails as a ``timeout`` (no wall-clock sleep, so the outcome cannot
    depend on machine load); otherwise the client sleeps the delay and
    completes normally.
``corrupt``
    The local round succeeds but the uploaded vector is corrupted —
    NaN entries, Inf entries, or a norm blow-up — which the server-side
    upload validation then rejects
    (:meth:`repro.federated.server.FederatedServer.validate_upload`).

The ``REPRO_FAULT_PLAN`` environment knob (used by the CI
``tier1-fault-injection`` leg) forces a plan onto every
:class:`~repro.federated.trainer.FederatedTrainer` that was not given
an explicit one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "FaultSpec", "FaultEvent", "FaultPlan", "ClientFaultError",
    "resolve_fault_plan", "forced_plan_from_env",
]

#: Corruption modes an injected ``corrupt`` event cycles through.
CORRUPT_MODES = ("nan", "inf", "norm")

#: Factor applied to an upload by the ``norm`` corruption mode.
NORM_BLOWUP = 1e8


class ClientFaultError(RuntimeError):
    """One client's round attempt failed (injected or real).

    Unlike :class:`~repro.federated.runner.RoundExecutionError` this is
    a *per-client* outcome: the runner retries the task (bounded) and
    then marks the client failed for the round — it never aborts the
    whole round.  Pickles across process boundaries via ``args``.
    """

    def __init__(self, kind: str, client_id: int, message: str = ""):
        super().__init__(kind, client_id, message)

    @property
    def kind(self) -> str:
        return self.args[0]

    @property
    def client_id(self) -> int:
        return self.args[1]

    @property
    def message(self) -> str:
        return self.args[2]

    def __str__(self) -> str:
        detail = f": {self.message}" if self.message else ""
        return f"client {self.client_id} {self.kind}{detail}"


@dataclass(frozen=True)
class FaultSpec:
    """Per-attempt fault probabilities of a :class:`FaultPlan`.

    Each probability is evaluated independently per
    ``(round, client, attempt)``; they must sum to at most 1.
    """

    seed: int = 0
    crash: float = 0.0
    dropout: float = 0.0
    straggler: float = 0.0
    corrupt: float = 0.0
    straggler_delay: float = 0.05  # seconds a surviving straggler sleeps
    first_round: int = 0  # inclusive: rounds before this are fault-free
    last_round: int | None = None  # inclusive: rounds after this are fault-free

    def __post_init__(self):
        rates = (self.crash, self.dropout, self.straggler, self.corrupt)
        if any(r < 0 for r in rates):
            raise ValueError("fault rates must be non-negative")
        if sum(rates) > 1.0 + 1e-12:
            raise ValueError("fault rates must sum to at most 1")
        if self.straggler_delay < 0:
            raise ValueError("straggler_delay must be non-negative")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault for one ``(round, client, attempt)``."""

    kind: str  # "crash" | "dropout" | "straggler" | "corrupt"
    delay: float = 0.0  # straggler only
    corrupt_mode: str = ""  # corrupt only: "nan" | "inf" | "norm"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of client faults.

    Immutable and cheaply picklable: it travels to pool workers inside
    :class:`~repro.federated.runner.WorkerSetup` so both execution
    backends consult the identical schedule.
    """

    spec: FaultSpec

    # -- deterministic draws ------------------------------------------------
    def _rng(self, round_index: int, client_id: int, attempt: int,
             stream: int) -> np.random.Generator:
        """A generator keyed purely by the fault coordinates."""
        return np.random.default_rng(
            (self.spec.seed, stream, round_index, client_id, attempt))

    def draw(self, round_index: int, client_id: int,
             attempt: int = 0) -> FaultEvent | None:
        """The fault (or None) for this round/client/attempt."""
        spec = self.spec
        if round_index < spec.first_round:
            return None
        if spec.last_round is not None and round_index > spec.last_round:
            return None
        rng = self._rng(round_index, client_id, attempt, stream=1)
        u = float(rng.random())
        edge = spec.crash
        if u < edge:
            return FaultEvent("crash")
        edge += spec.dropout
        if u < edge:
            return FaultEvent("dropout")
        edge += spec.straggler
        if u < edge:
            return FaultEvent("straggler", delay=spec.straggler_delay)
        edge += spec.corrupt
        if u < edge:
            mode = CORRUPT_MODES[int(rng.integers(len(CORRUPT_MODES)))]
            return FaultEvent("corrupt", corrupt_mode=mode)
        return None

    def corrupt_upload(self, flat: np.ndarray, round_index: int,
                       client_id: int, attempt: int, mode: str) -> np.ndarray:
        """A deterministically corrupted copy of an upload vector."""
        corrupted = np.array(flat, copy=True)
        if mode == "norm":
            return corrupted * corrupted.dtype.type(NORM_BLOWUP)
        if mode not in ("nan", "inf"):
            raise ValueError(f"unknown corruption mode {mode!r}")
        rng = self._rng(round_index, client_id, attempt, stream=2)
        count = max(1, corrupted.size // 100)
        where = rng.choice(corrupted.size, size=min(count, corrupted.size),
                           replace=False)
        corrupted[where] = np.nan if mode == "nan" else np.inf
        return corrupted

    # -- spec-string round trip ---------------------------------------------
    _SPEC_KEYS = {
        "seed": ("seed", int),
        "crash": ("crash", float),
        "dropout": ("dropout", float),
        "straggler": ("straggler", float),
        "corrupt": ("corrupt", float),
        "delay": ("straggler_delay", float),
        "first_round": ("first_round", int),
        "last_round": ("last_round", int),
    }

    @classmethod
    def from_spec(cls, text: str) -> "FaultPlan":
        """Parse ``"dropout=0.3,crash=0.1,seed=42"`` into a plan.

        Keys: ``crash``, ``dropout``, ``straggler``, ``corrupt``
        (per-attempt probabilities), ``seed``, ``delay`` (straggler
        seconds), ``first_round``/``last_round`` (inclusive window).
        """
        spec = FaultSpec()
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"fault-plan item {item!r} is not key=value")
            key, _, value = item.partition("=")
            entry = cls._SPEC_KEYS.get(key.strip())
            if entry is None:
                raise ValueError(
                    f"unknown fault-plan key {key.strip()!r}; expected one "
                    f"of {sorted(cls._SPEC_KEYS)}")
            field_name, cast = entry
            spec = replace(spec, **{field_name: cast(value.strip())})
        return cls(spec)

    def spec_string(self) -> str:
        """The ``from_spec`` form of this plan (round-trips)."""
        spec = self.spec
        parts = [f"seed={spec.seed}"]
        for key in ("crash", "dropout", "straggler", "corrupt"):
            rate = getattr(spec, key)
            if rate:
                parts.append(f"{key}={rate:g}")
        if spec.straggler and spec.straggler_delay != 0.05:
            parts.append(f"delay={spec.straggler_delay:g}")
        if spec.first_round:
            parts.append(f"first_round={spec.first_round}")
        if spec.last_round is not None:
            parts.append(f"last_round={spec.last_round}")
        return ",".join(parts)


def forced_plan_from_env() -> FaultPlan | None:
    """The plan forced by ``REPRO_FAULT_PLAN`` (None when unset).

    The CI ``tier1-fault-injection`` leg sets this so the whole
    federated suite runs against injected failures, mirroring the
    ``REPRO_COMPUTE_DTYPE`` forcing pattern.
    """
    text = os.environ.get("REPRO_FAULT_PLAN", "").strip()
    if not text:
        return None
    return FaultPlan.from_spec(text)


def resolve_fault_plan(plan: "FaultPlan | FaultSpec | str | None",
                       ) -> FaultPlan | None:
    """Normalise a config-level fault plan value.

    Accepts an explicit :class:`FaultPlan`, a bare :class:`FaultSpec`,
    a ``from_spec`` string, or None — in which case the
    ``REPRO_FAULT_PLAN`` environment forcing (if any) applies.
    """
    if plan is None:
        return forced_plan_from_env()
    if isinstance(plan, FaultPlan):
        return plan
    if isinstance(plan, FaultSpec):
        return FaultPlan(plan)
    if isinstance(plan, str):
        return FaultPlan.from_spec(plan) if plan.strip() else forced_plan_from_env()
    raise TypeError(f"cannot interpret fault plan {plan!r}")
