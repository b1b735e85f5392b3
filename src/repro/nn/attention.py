"""Attention operators.

LightTR itself deliberately avoids attention (that is the point of the
lightweight ST-operator), but the paper's strongest baselines -
MTrajRec+FL (Seq2Seq with attention) and RNTrajRec+FL (transformer-style
encoder) - need it, as does the Table II complexity analysis.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from .functional import concat, softmax
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["scaled_dot_product_attention", "AdditiveAttention", "SelfAttention"]


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
    """Compute ``softmax(QK^T / sqrt(d)) V``.

    Shapes: ``q`` is ``(..., Tq, d)``, ``k``/``v`` are ``(..., Tk, d)``.
    Returns the attended values and the attention weights.
    """
    d = q.shape[-1]
    scores = (q @ k.transpose(*range(k.ndim - 2), k.ndim - 1, k.ndim - 2)) * (1.0 / np.sqrt(d))
    weights = softmax(scores, axis=-1)
    return weights @ v, weights


class AdditiveAttention(Module):
    """Bahdanau-style attention used by the MTrajRec baseline decoder.

    ``score(h, s_i) = v^T tanh(W_h h + W_s s_i)`` over encoder states
    ``s_i``; returns the context vector.
    """

    def __init__(self, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.hidden_size = hidden_size
        self.w_query = Parameter(initializers.xavier_uniform((hidden_size, hidden_size), rng))
        self.w_keys = Parameter(initializers.xavier_uniform((hidden_size, hidden_size), rng))
        self.v = Parameter(initializers.xavier_uniform((hidden_size, 1), rng))

    def forward(self, query: Tensor, keys: Tensor,
                mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
        """Attend ``query`` ``(B, H)`` over ``keys`` ``(B, T, H)``.

        Returns ``(context (B, H), weights (B, T))``.
        """
        batch, steps, hidden = keys.shape
        q = (query @ self.w_query).reshape(batch, 1, hidden)
        k = keys @ self.w_keys
        energy = (q + k).tanh() @ self.v  # (B, T, 1)
        energy = energy.reshape(batch, steps)
        if mask is not None:
            from .functional import where_mask

            energy = where_mask(mask, energy, -1e9)
        weights = softmax(energy, axis=-1)
        context = (weights.reshape(batch, 1, steps) @ keys).reshape(batch, hidden)
        return context, weights

    def project_keys(self, keys: np.ndarray) -> np.ndarray:
        """Precompute ``keys @ W_s`` once per decode session.

        The key projection is identical at every decode step (the
        encoder states are fixed), so packed decode sessions hoist it
        out of the step loop; the per-step tape path recomputes it with
        the same operations, hence identical values.
        """
        return keys @ self.w_keys.data

    def step_array(self, query: np.ndarray, keys: np.ndarray,
                   keys_proj: np.ndarray,
                   mask: np.ndarray | None = None) -> np.ndarray:
        """One tape-free attention read on raw arrays (decode-engine
        kernel): mirrors :meth:`forward` with ``keys_proj`` from
        :meth:`project_keys`, except that the single-output energy
        projection goes through :func:`repro.nn.row_dot` so its bits do
        not depend on the decode working-set size.  Returns the context
        vectors ``(B, H)``.
        """
        from .functional import row_dot

        batch, steps, hidden = keys.shape
        q = (query @ self.w_query.data).reshape(batch, 1, hidden)
        energy = row_dot(np.tanh(q + keys_proj), self.v.data)  # (B, T)
        if mask is not None:
            energy = np.where(np.asarray(mask, dtype=bool), energy, -1e9)
        weights = energy - energy.max(axis=-1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=-1, keepdims=True)
        return (weights.reshape(batch, 1, steps) @ keys).reshape(batch, hidden)


class SelfAttention(Module):
    """Single-head self-attention block (RNTrajRec baseline encoder).

    Includes the residual connection and a position-wise feed-forward
    layer, i.e. a minimal transformer encoder block.
    """

    def __init__(self, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        from .layers import LayerNorm, Linear

        self.hidden_size = hidden_size
        self.w_q = Linear(hidden_size, hidden_size, rng, bias=False)
        self.w_k = Linear(hidden_size, hidden_size, rng, bias=False)
        self.w_v = Linear(hidden_size, hidden_size, rng, bias=False)
        self.ff1 = Linear(hidden_size, hidden_size * 2, rng)
        self.ff2 = Linear(hidden_size * 2, hidden_size, rng)
        self.norm1 = LayerNorm(hidden_size)
        self.norm2 = LayerNorm(hidden_size)

    def forward(self, x: Tensor) -> Tensor:
        """Apply the block to ``x`` of shape ``(B, T, H)``."""
        attended, _ = scaled_dot_product_attention(self.w_q(x), self.w_k(x), self.w_v(x))
        x = self.norm1(x + attended)
        hidden = self.ff2(self.ff1(x).relu())
        return self.norm2(x + hidden)
