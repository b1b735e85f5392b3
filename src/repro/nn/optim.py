"""Optimisers: SGD (with momentum) and Adam, plus gradient clipping.

The paper trains with an initial learning rate of 1e-3; we default to
Adam which is what MTrajRec-style recovery models use in practice.

Both optimisers run on a :class:`~repro.nn.flatten.FlatParameterSpace`:
parameters and gradients are gathered into contiguous ``(P,)`` buffers
once per step and the update rule is a handful of vectorized NumPy ops,
instead of ~10 small-array operations per parameter tensor.  The
elementwise arithmetic matches the per-parameter formulation to within
float64 rounding (verified in the tests).  When some parameters
have no gradient (rare: a head unused by an ablation), the optimisers
fall back to the per-parameter reference loop to preserve the exact
"skip params without grads" semantics.

Master-weight contract (mixed precision)
----------------------------------------
At ``float32`` compute (:func:`repro.nn.set_compute_dtype`) the
parameters and gradients live in float32, but the optimiser state never
does: the gather buffers and the moment vectors are **always float64**,
gradients upcast into them at gather time, the whole update rule runs
in float64, and the result is cast back to the parameter dtype only at
the final :meth:`FlatParameterSpace.set_flat` scatter.  This keeps
federated histories aggregation-stable — shipped session state
(:meth:`Optimizer.state_flat`) is float64 at any compute dtype, so
serial and process-pool rounds stay bit-identical to each other — and
confines the float32 rounding to one cast per parameter per step.  The
float64 master view is re-materialised from the parameters each step
(sub-float32 parameter residuals are not carried between steps; the
moments, which drive the update direction, are).
"""

from __future__ import annotations

import numpy as np

from .flatten import FlatParameterSpace
from .module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base optimiser holding a parameter list and its flat view."""

    def __init__(self, parameters: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self._space = FlatParameterSpace(self.parameters)
        # Reused float64 master-view gather buffers (avoid reallocating
        # (P,) arrays per step; float32 params/grads upcast per slice).
        self._theta = np.empty(self._space.total_size, dtype=np.float64)
        self._grad = np.empty(self._space.total_size, dtype=np.float64)

    def _param_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter reshaped views into a flat buffer."""
        layout = self._space.layout
        return [flat[o:o + s].reshape(shape)
                for o, s, shape in zip(layout.offsets, layout.sizes, layout.shapes)]

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # flat state shipping (parallel round runners, checkpoints)
    # ------------------------------------------------------------------
    def _check_flat(self, name: str, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64).reshape(-1)
        if value.size != self._space.total_size:
            raise ValueError(
                f"optimizer state {name!r} has {value.size} elements, "
                f"expected {self._space.total_size}"
            )
        return value

    def state_flat(self) -> dict:
        """The optimiser's mutable state as flat float64 buffers.

        The returned arrays are copies: shipping them across a process
        boundary (or holding them between federated rounds) never
        aliases the live buffers.  Stateless optimisers return ``{}``.
        """
        return {}

    def load_state_flat(self, state: dict) -> None:
        """Restore state captured by :meth:`state_flat` (copies in place,
        so existing per-parameter views of the buffers stay valid)."""
        if state:
            raise ValueError(f"unexpected optimizer state keys {sorted(state)}")


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: list[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity_flat = np.zeros(self._space.total_size, dtype=np.float64)
        self._velocity = self._param_views(self._velocity_flat)

    def state_flat(self) -> dict:
        return {"velocity": self._velocity_flat.copy()}

    def load_state_flat(self, state: dict) -> None:
        if set(state) != {"velocity"}:
            raise ValueError(f"SGD state expects {{'velocity'}}, got {sorted(state)}")
        self._velocity_flat[...] = self._check_flat("velocity", state["velocity"])

    def step(self) -> None:
        if self._space.all_grads_present():
            theta = self._space.get_flat(self._theta)
            grad = self._space.get_flat_grad(self._grad)
            if self.weight_decay:
                grad += self.weight_decay * theta
            if self.momentum:
                v = self._velocity_flat
                v *= self.momentum
                v += grad
                grad = v
            theta -= self.lr * grad
            self._space.set_flat(theta)
            return
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            grad = np.asarray(p.grad, dtype=np.float64)
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            # Update in float64, cast back at the parameter write (the
            # same contract as the flat path's set_flat scatter).
            p.data = (p.data - self.lr * grad).astype(p.data.dtype,
                                                      copy=False)


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) with bias correction."""

    def __init__(self, parameters: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m_flat = np.zeros(self._space.total_size, dtype=np.float64)
        self._v_flat = np.zeros(self._space.total_size, dtype=np.float64)
        self._m = self._param_views(self._m_flat)
        self._v = self._param_views(self._v_flat)
        self._denom = np.empty(self._space.total_size, dtype=np.float64)
        self._update = np.empty(self._space.total_size, dtype=np.float64)
        self._t = 0

    def state_flat(self) -> dict:
        return {"m": self._m_flat.copy(), "v": self._v_flat.copy(), "t": self._t}

    def load_state_flat(self, state: dict) -> None:
        if set(state) != {"m", "v", "t"}:
            raise ValueError(f"Adam state expects {{'m', 'v', 't'}}, got {sorted(state)}")
        self._m_flat[...] = self._check_flat("m", state["m"])
        self._v_flat[...] = self._check_flat("v", state["v"])
        self._t = int(state["t"])

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        if self._space.all_grads_present():
            theta = self._space.get_flat(self._theta)
            grad = self._space.get_flat_grad(self._grad)
            if self.weight_decay:
                grad += self.weight_decay * theta
            m, v = self._m_flat, self._v_flat
            # v first (needs grad^2), then m can consume the grad buffer.
            v *= self.beta2
            sq = np.multiply(grad, grad, out=self._denom)
            sq *= 1.0 - self.beta2
            v += sq
            m *= self.beta1
            grad *= 1.0 - self.beta1
            m += grad
            # update = lr * (m / bias1) / (sqrt(v / bias2) + eps) with the
            # bias corrections folded into scalars:
            #   = (lr * sqrt(bias2) / bias1) * m / (sqrt(v) + eps * sqrt(bias2))
            root_bias2 = np.sqrt(bias2)
            denom = np.sqrt(v, out=self._denom)
            denom += self.eps * root_bias2
            update = np.divide(m, denom, out=self._update)
            update *= self.lr * root_bias2 / bias1
            theta -= update
            self._space.set_flat(theta)
            return
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = np.asarray(p.grad, dtype=np.float64)
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            # Update in float64, cast back at the parameter write.
            p.data = (p.data - self.lr * m_hat
                      / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype,
                                                            copy=False)


def clip_grad_norm(parameters: list[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for convergence diagnostics).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(np.fromiter(
        (np.dot(g.reshape(-1), g.reshape(-1)) for g in grads),
        dtype=np.float64, count=len(grads)).sum()))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads:
            g *= scale
    return total
