"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.module import BatchedModule, BatchedParamBinder, Module
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["BatchedDropout", "Dropout"]


class Dropout(Module):
    """Randomly zero activations during training, scaling survivors by 1/(1-p).

    Inference (``training=False``) is the identity, so no rescaling is
    needed at test time.
    """

    def __init__(self, rate: float, rng: RngLike = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = ensure_rng(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def batched(self, binder: BatchedParamBinder) -> "BatchedDropout":
        del binder  # parameter-free
        return BatchedDropout(self)


class BatchedDropout(BatchedModule):
    """:class:`Dropout` with one stacked ``(C, ...)`` mask per step,
    drawn from the plain layer's own stream.

    That single draw consumes the stream in a different order than C
    per-client passes would, so the mask code stays separate from the
    plain layer's.  Dropout is outside the cross-backend bitwise
    contract anyway (process replicas each own a copy of the stream);
    inference is the exact identity on every backend.
    """

    def __init__(self, layer: Dropout) -> None:
        self._layer = layer
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self._layer.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self._layer.rate
        self._mask = (self._layer._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask
