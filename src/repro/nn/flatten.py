"""Flat-parameter views: a model's weights as one contiguous vector.

Following the FedAvg formulation (McMahan et al.), a model's parameters
are just one point ``theta`` in R^P.  :class:`FlatLayout` describes how
named arrays pack into that vector, and :class:`FlatParameterSpace`
binds a layout to live :class:`~repro.nn.module.Parameter` objects so
optimisers and the federated stack can gather/scatter all weights (or
gradients) with one slice-copy per tensor and run their arithmetic as a
handful of vectorized ops on ``(P,)`` buffers instead of per-key loops.

Gather allocations honour the *exchange dtype*
(:func:`~repro.nn.dtypes.set_default_dtype`): when no output buffer is
supplied, :meth:`FlatParameterSpace.get_flat` and
:meth:`FlatLayout.flatten_state` allocate in that dtype, so federated
payloads can travel as float32 while parameters, gradients, and
optimiser buffers (which always pass explicit float64 ``out=`` arrays)
stay float64.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from .dtypes import get_default_dtype
from .module import Module, Parameter

__all__ = ["FlatLayout", "FlatParameterSpace"]


class FlatLayout:
    """Packing of named, shaped arrays into one flat float64 vector."""

    __slots__ = ("names", "shapes", "sizes", "offsets", "total_size")

    def __init__(self, names: Sequence[str], shapes: Sequence[tuple[int, ...]]):
        if len(names) != len(shapes):
            raise ValueError("need one shape per name")
        if not names:
            raise ValueError("layout needs at least one entry")
        self.names = tuple(names)
        self.shapes = tuple(tuple(s) for s in shapes)
        self.sizes = tuple(int(np.prod(s, dtype=np.int64)) for s in self.shapes)
        offsets = np.cumsum((0,) + self.sizes)
        self.offsets = tuple(int(o) for o in offsets[:-1])
        self.total_size = int(offsets[-1])

    @classmethod
    def from_state(cls, state: dict) -> "FlatLayout":
        """Layout matching a state dict's keys and array shapes."""
        return cls(list(state.keys()),
                   [np.asarray(v).shape for v in state.values()])

    def flatten_state(self, state: dict, out: np.ndarray | None = None,
                      dtype=None) -> np.ndarray:
        """Pack a state dict into a flat vector, validating shapes.

        Without ``out`` the vector is allocated in ``dtype`` (default:
        the exchange dtype).  Raises ``KeyError`` when a layout entry is
        missing and ``ValueError`` on shape mismatch, mirroring
        :meth:`~repro.nn.module.Module.load_state_dict`.
        """
        if out is not None:
            vec = out
        else:
            vec = np.empty(self.total_size,
                           dtype=dtype if dtype is not None else get_default_dtype())
        for name, shape, size, offset in zip(self.names, self.shapes,
                                             self.sizes, self.offsets):
            if name not in state:
                raise KeyError(f"state dict is missing parameter {name!r}")
            value = np.asarray(state[name])
            if value.shape != shape:
                raise ValueError(f"shape mismatch for {name!r} during "
                                 f"flattening: expected {shape}, got {value.shape}")
            vec[offset:offset + size] = value.reshape(-1)
        return vec

    def unflatten(self, vec: np.ndarray) -> "OrderedDict[str, np.ndarray]":
        """Unpack a flat vector back into a name -> array state dict.

        The returned arrays are reshaped views of ``vec`` (disjoint
        slices), so the dict is independent of any model parameters.
        """
        vec = np.asarray(vec, dtype=np.float64).reshape(-1)
        if vec.size != self.total_size:
            raise ValueError(f"flat vector has {vec.size} elements, "
                             f"layout expects {self.total_size}")
        return OrderedDict(
            (name, vec[offset:offset + size].reshape(shape))
            for name, shape, size, offset in zip(self.names, self.shapes,
                                                 self.sizes, self.offsets)
        )


class FlatParameterSpace:
    """A layout bound to live parameters for gather/scatter access."""

    def __init__(self, parameters: Iterable[Parameter],
                 names: Sequence[str] | None = None):
        self.parameters: list[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("flat space needs at least one parameter")
        if names is None:
            names = [p.name or f"param{i}" for i, p in enumerate(self.parameters)]
        self.layout = FlatLayout(names, [p.data.shape for p in self.parameters])

    @classmethod
    def from_module(cls, module: Module) -> "FlatParameterSpace":
        """Flat space over a module's named parameters (state-dict order)."""
        named = list(module.named_parameters())
        return cls([p for _, p in named], names=[n for n, _ in named])

    @property
    def total_size(self) -> int:
        return self.layout.total_size

    # ------------------------------------------------------------------
    # gather / scatter
    # ------------------------------------------------------------------
    def get_flat(self, out: np.ndarray | None = None, dtype=None) -> np.ndarray:
        """Gather all parameter values into one ``(P,)`` vector.

        Without ``out`` the vector is allocated in ``dtype`` (default:
        the exchange dtype, normally float64); assignments downcast per
        slice.  Optimisers pass their own float64 ``out`` buffers, so
        training math never sees a reduced precision.
        """
        if out is not None:
            vec = out
        else:
            vec = np.empty(self.total_size,
                           dtype=dtype if dtype is not None else get_default_dtype())
        for p, size, offset in zip(self.parameters, self.layout.sizes,
                                   self.layout.offsets):
            vec[offset:offset + size] = p.data.reshape(-1)
        return vec

    def set_flat(self, vec: np.ndarray) -> None:
        """Scatter a ``(P,)`` vector back into the parameters (in place).

        Accepts any float dtype; each slice casts to its parameter's
        storage dtype on assignment — this is the single point where
        the optimisers' float64 master updates round to the compute
        dtype (see :mod:`repro.nn.optim`).
        """
        vec = np.asarray(vec).reshape(-1)
        if vec.size != self.total_size:
            raise ValueError(f"flat vector has {vec.size} elements, "
                             f"space expects {self.total_size}")
        for p, shape, size, offset in zip(self.parameters, self.layout.shapes,
                                          self.layout.sizes, self.layout.offsets):
            p.data[...] = vec[offset:offset + size].reshape(shape)

    def get_flat_grad(self, out: np.ndarray | None = None) -> np.ndarray:
        """Gather gradients into one ``(P,)`` vector (zeros where None).

        Allocates float64 by default (the optimisers' master-precision
        view; float32 gradients upcast per slice)."""
        vec = out if out is not None else np.empty(self.total_size,
                                                   dtype=np.float64)
        for p, size, offset in zip(self.parameters, self.layout.sizes,
                                   self.layout.offsets):
            if p.grad is None:
                vec[offset:offset + size] = 0.0
            else:
                vec[offset:offset + size] = p.grad.reshape(-1)
        return vec

    def all_grads_present(self) -> bool:
        """Whether every parameter received a gradient."""
        return all(p.grad is not None for p in self.parameters)

    # ------------------------------------------------------------------
    # state-dict bridging
    # ------------------------------------------------------------------
    def state_to_flat(self, state: dict) -> np.ndarray:
        """Flatten an external state dict using this space's layout."""
        return self.layout.flatten_state(state)

    def flat_to_state(self, vec: np.ndarray) -> "OrderedDict[str, np.ndarray]":
        """Unflatten a vector into a state dict matching this space."""
        return self.layout.unflatten(vec)
