"""Feed-forward layers: Linear (Dense), Embedding, Dropout, activations.

The paper's "lightweight ST-operator" is built from exactly these pieces
(pure-MLP multi-task head), so the Dense layer here is the workhorse of
the whole reproduction.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from .functional import addmm
from .functional import dropout as dropout_fn
from .functional import embedding_lookup
from .fusion import fused_kernels_enabled
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Embedding",
    "Dropout",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "LayerNorm",
    "MLP",
]


class Linear(Module):
    """Fully connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    bias:
        Whether to add a learned bias.
    rng:
        Generator used for Xavier initialisation.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(initializers.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(initializers.zeros_init((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if fused_kernels_enabled():
            return addmm(x, self.weight, self.bias)
        # Reference path: matmul + add as separate tape nodes.
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator):
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("Embedding sizes must be positive")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        scale = 1.0 / np.sqrt(embedding_dim)
        self.weight = Parameter(initializers.uniform((num_embeddings, embedding_dim), rng, scale))

    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return embedding_lookup(self.weight, indices)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return dropout_fn(x, self.p, self._rng, training=self.training)


class ReLU(Module):
    """Elementwise max(0, x)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    """Elementwise tanh."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Elementwise logistic sigmoid."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / ((var + self.eps) ** 0.5)
        return normed * self.gamma + self.beta


class MLP(Module):
    """Multi-layer perceptron with ReLU between hidden layers.

    This is the pure-MLP block the paper substitutes for heavyweight
    CNN/Attn ST-operators (Section III / IV-B2).
    """

    def __init__(self, dims: list[int], rng: np.random.Generator,
                 activate_last: bool = False):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        from .module import ModuleList

        self.dims = list(dims)
        self.activate_last = activate_last
        self.layers = ModuleList(
            [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        )

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i != last or self.activate_last:
                x = x.relu()
        return x
