"""Outside-in tracing: spans around the program's public layer functions.

The benchmark does not change the program.  It replaces, for the length
of a run, each public function named in :data:`BOUNDARIES` with a
wrapper that records a span ``(name, start, end, parent)`` and calls the
original.  A name is wrapped where callers look it up, not where it is
defined: modules that ``from x import f`` hold their own binding, so
patching only ``x.f`` would record nothing.  Every patch is undone when
the run ends.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover.  Times come from the
:class:`~hostcal.HostClock` program clock, so calibration calls made
inside a span are not charged to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from collections import defaultdict

#: ``(span name, module, attribute paths)``: every attribute path is
#: looked up in the module and wrapped under the span name.  ``nn.kernel``
#: is the prefix of ``nn.kernel.<kernel name>``: ``call_kernel`` takes the
#: kernel's name as its first argument.
BOUNDARIES = (
    ("data.dataset.from_matched", "repro.data.dataset",
     ("TrajectoryDataset.from_matched",)),
    ("data.dataset.full_batch", "repro.data.dataset",
     ("TrajectoryDataset.full_batch",)),
    ("spatial.index.query", "repro.spatial.index", ("SegmentIndex.query",)),
    ("core.mask.build_for", "repro.core.mask",
     ("ConstraintMaskBuilder.build_for",)),
    ("core.recovery.recover_dataset", "repro.core.recovery",
     ("TrajectoryRecovery.recover_dataset",)),
    ("core.lte.forward", "repro.core.lte", ("LTEModel.forward",)),
    ("core.training.train_epoch", "repro.core.training",
     ("LocalTrainer.train_epoch",)),
    ("core.teacher.train_teacher", "repro.federated.trainer",
     ("train_teacher",)),
    ("core.distill.lambda_for_client", "repro.core.distill",
     ("MetaKnowledgeDistiller.lambda_for_client",)),
    ("core.distill.term", "repro.core.distill",
     ("MetaKnowledgeDistiller.distillation_term",)),
    ("core.training.model_segment_accuracy", "repro.federated.trainer",
     ("model_segment_accuracy",)),
    ("core.training.model_segment_accuracy", "repro.core.distill",
     ("model_segment_accuracy",)),
    ("core.training.model_segment_accuracy", "repro.core.training",
     ("model_segment_accuracy",)),
    ("nn.tensor.backward", "repro.nn.tensor", ("Tensor.backward",)),
    ("nn.optim.step", "repro.nn.optim", ("Adam.step",)),
    ("nn.kernel", "repro.nn.functional", ("call_kernel",)),
    ("nn.kernel", "repro.nn.recurrent", ("call_kernel",)),
    ("nn.kernel", "repro.core.st_block", ("call_kernel",)),
    ("nn.kernel", "repro.serving.programs", ("call_kernel",)),
    ("nn.flatten.get_flat", "repro.nn.flatten",
     ("FlatParameterSpace.get_flat",)),
    ("nn.flatten.set_flat", "repro.nn.flatten",
     ("FlatParameterSpace.set_flat",)),
    ("federated.server.select_clients", "repro.federated.server",
     ("FederatedServer.select_clients",)),
    ("federated.server.validate_rows", "repro.federated.server",
     ("FederatedServer.validate_rows",)),
    ("federated.server.validate_upload", "repro.federated.server",
     ("FederatedServer.validate_upload",)),
    ("federated.server.aggregate_rows", "repro.federated.server",
     ("FederatedServer.aggregate_rows",)),
    ("federated.arena.checkout", "repro.federated.arena",
     ("ModelArena.checkout",)),
    ("federated.arena.checkin", "repro.federated.arena",
     ("ModelArena.checkin",)),
    ("federated.communication.encode", "repro.federated.communication",
     ("IdentityCodec.encode", "Float32Codec.encode", "Int8Codec.encode")),
    ("federated.communication.decode", "repro.federated.communication",
     ("IdentityCodec.decode", "Float32Codec.decode", "Int8Codec.decode")),
    ("federated.runner.run_round", "repro.federated.runner",
     ("SerialRunner.run_round_tolerant", "ArenaRunner.run_round_tolerant")),
    ("federated.runner.execute", "repro.federated.runner",
     ("TaskExecutor.execute",)),
    ("federated.client.local_train_flat", "repro.federated.client",
     ("FederatedClient.local_train_flat",)),
    ("serving.scheduler.submit", "repro.serving.scheduler",
     ("ContinuousBatcher.submit",)),
    ("serving.scheduler.step", "repro.serving.scheduler",
     ("ContinuousBatcher.step",)),
    ("serving.api.decode_model", "repro.core.training", ("decode_model",)),
    ("serving.api.decode_model", "repro.core.recovery", ("decode_model",)),
    ("serving.api.decode_model", "repro.metrics.evaluation",
     ("decode_model",)),
    ("serving.api.decode_model", "repro.serving.scheduler",
     ("decode_model",)),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Patches:
    """Replaces attributes for the length of a ``with`` block."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module_name: str, path: str, make) -> None:
        """Replace ``module.path`` with ``make(original function)``."""
        owner, attr = _resolve(module_name, path)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


class Tracer:
    """In-memory span recorder on a caller-supplied clock."""

    def __init__(self, clock):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[tuple[str, float, float, int] | None] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrapper(self, name: str):
        """A ``make`` for :meth:`Patches.wrap` recording spans ``name``."""
        def make(fn):
            if name == "nn.kernel":
                @functools.wraps(fn)
                def traced(kernel, *args, **kwargs):
                    return self.call(f"nn.kernel.{kernel}", fn, kernel,
                                     *args, **kwargs)
            else:
                @functools.wraps(fn)
                def traced(*args, **kwargs):
                    return self.call(name, fn, *args, **kwargs)
            return traced
        return make

    def install(self, patches: Patches) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`."""
        for name, module_name, paths in BOUNDARIES:
            for path in paths:
                patches.wrap(module_name, path, self.wrapper(name))

    def table(self, windows=None) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over the spans that
        start inside ``windows`` (all spans when None)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is None or not _inside(span[1], windows):
                continue
            name, start, end, _ = span
            calls[name] += 1
            self_s[name] += (end - start) - child_time[index]
        return {name: (calls[name], self_s[name]) for name in calls}

    def inclusive(self, name: str, windows) -> float:
        """Total duration of spans ``name`` that start inside ``windows``."""
        return sum(s[2] - s[1] for s in self.spans
                   if s is not None and s[0] == name
                   and _inside(s[1], windows))

    def coverage(self, windows: list[tuple[float, float]]) -> float:
        """Share of the time in ``windows`` covered by some root span."""
        roots = sorted((s[1], s[2]) for s in self.spans
                       if s is not None and s[3] < 0)
        covered = 0.0
        total = 0.0
        for lo, hi in windows:
            total += hi - lo
            reach = lo
            for start, end in roots:
                if end <= reach or start >= hi:
                    continue
                start = max(start, reach)
                end = min(end, hi)
                covered += end - start
                reach = end
        return covered / total if total > 0 else 0.0


def _inside(t: float, windows) -> bool:
    return windows is None or any(lo <= t <= hi for lo, hi in windows)
