"""Token embedding lookup layer."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.initializers import normal
from repro.nn.module import BatchedModule, BatchedParamBinder, Module
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike

__all__ = ["BatchedEmbedding", "Embedding"]


class Embedding(Module):
    """Map integer token ids ``(batch, time)`` to vectors ``(batch, time, dim)``."""

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        rng: RngLike = None,
        name: str = "embedding",
    ) -> None:
        if vocab_size < 1 or embedding_dim < 1:
            raise ValueError("vocab_size and embedding_dim must be positive")
        self.vocab_size = vocab_size
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            normal((vocab_size, embedding_dim), rng, std=0.05), name=f"{name}.weight"
        )
        self._ids: np.ndarray | None = None

    def parameters(self) -> List[Parameter]:
        return [self.weight]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        ids = np.asarray(x)
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(f"Embedding expects integer ids, got dtype {ids.dtype}")
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.vocab_size:
            raise ValueError("token id out of range for vocabulary")
        self._ids = ids
        return self.weight.data[ids]

    def _param_grads(self, grad_output: np.ndarray) -> None:
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        np.add.at(self.weight.grad, self._ids, grad_output)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._param_grads(grad_output)
        # Token ids are not differentiable; return a zero placeholder of
        # the input's shape for API uniformity.
        return np.zeros(self._ids.shape, dtype=float)

    def head_backward(self, grad_output: np.ndarray) -> None:
        self._param_grads(grad_output)
        return None  # zero placeholder elided (see Module.head_backward)

    def batched(self, binder: BatchedParamBinder) -> "BatchedEmbedding":
        return BatchedEmbedding(self, binder)


class BatchedEmbedding(BatchedModule):
    """:class:`Embedding` over ``(clients, ...)`` token ids, each client
    gathering from its own row of the stacked ``(C, vocab, dim)`` table.

    The gather and scatter pair a broadcast client index with the ids
    (a second index the plain layer does not have), so they stay
    separate from the plain layer's.  ``np.add.at`` iterates the ids in
    flat C order: per client the plain layer's in-order accumulation,
    never across clients (distinct tables).
    """

    def __init__(self, layer: Embedding, binder: BatchedParamBinder) -> None:
        self.vocab_size = layer.vocab_size
        self._w, self._dw = binder.bind(layer.weight)  # (C, vocab, dim)
        self._ids: np.ndarray | None = None

    def _client_index(self, ids: np.ndarray) -> np.ndarray:
        shape = (-1,) + (1,) * (ids.ndim - 1)
        return np.arange(self._w.shape[0]).reshape(shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        ids = np.asarray(x)
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(f"Embedding expects integer ids, got dtype {ids.dtype}")
        if ids.ndim < 2 or ids.shape[0] != self._w.shape[0]:
            raise ValueError(
                f"expected ids (clients={self._w.shape[0]}, ...), got {ids.shape}"
            )
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.vocab_size:
            raise ValueError("token id out of range for vocabulary")
        self._ids = ids
        return self._w[self._client_index(ids), ids]

    def _param_grads(self, grad_output: np.ndarray) -> None:
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        ids = self._ids
        c_idx = np.broadcast_to(self._client_index(ids), ids.shape)
        np.add.at(self._dw, (c_idx, ids), grad_output)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._param_grads(grad_output)
        return np.zeros(self._ids.shape, dtype=float)

    def head_backward(self, grad_output: np.ndarray) -> None:
        self._param_grads(grad_output)
        return None  # zero placeholder elided (see Module.head_backward)
