"""Fully connected layer."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.initializers import get_initializer
from repro.nn.module import BatchedModule, BatchedParamBinder, Module
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike

__all__ = ["BatchedDense", "Dense"]


def _dense_forward(x, w, b):
    """``x @ w + b`` over any leading axes; ``b`` (or None) broadcasts
    against the output.  Each leading slice runs the plain layer's GEMM
    on the plain operand shapes and strides, hence bitwise per slice."""
    out = x @ w
    if b is not None:
        out = out + b
    return out


def _dense_backward(x, grad_output, w, dw, db, head=False):
    """Accumulate dW (and db, unless None) in place, then return the
    input gradient (None as the network head).  The bias gradient
    reduces over the batch axis (-2) of each leading slice only."""
    if x is None:
        raise RuntimeError("backward called before forward")
    dw += x.swapaxes(-1, -2) @ grad_output
    if db is not None:
        db += grad_output.sum(axis=-2)
    if head:
        return None  # input gradient elided (see Module.head_backward)
    return grad_output @ w.swapaxes(-1, -2)


class Dense(Module):
    """Affine map ``y = x @ W + b`` over the last axis.

    Accepts inputs of shape ``(batch, in_features)``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: RngLike = None,
        weight_init: str = "glorot_uniform",
        use_bias: bool = True,
        name: str = "dense",
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("in_features and out_features must be positive")
        init = get_initializer(weight_init)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init((in_features, out_features), rng), name=f"{name}.weight"
        )
        self.bias = (
            Parameter(np.zeros(out_features, dtype=float), name=f"{name}.bias")
            if use_bias
            else None
        )
        self._x: np.ndarray | None = None

    def parameters(self) -> List[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x
        b = None if self.bias is None else self.bias.data
        return _dense_forward(x, self.weight.data, b)

    def _backward(self, grad_output: np.ndarray, head: bool) -> np.ndarray | None:
        db = None if self.bias is None else self.bias.grad
        return _dense_backward(
            self._x, grad_output, self.weight.data, self.weight.grad, db, head
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._backward(grad_output, head=False)

    def head_backward(self, grad_output: np.ndarray) -> None:
        return self._backward(grad_output, head=True)

    def batched(self, binder: BatchedParamBinder) -> "BatchedDense":
        return BatchedDense(self, binder)


class BatchedDense(BatchedModule):
    """:class:`Dense` over ``(clients, batch, in)`` inputs, with each
    client's weights a row of the binder's stacked views."""

    def __init__(self, layer: Dense, binder: BatchedParamBinder) -> None:
        self.in_features = layer.in_features
        self._w, self._dw = binder.bind(layer.weight)  # (C, in, out)
        self._b = self._db = None
        if layer.bias is not None:
            b, self._db = binder.bind(layer.bias)  # (C, out)
            self._b = b[:, None, :]  # broadcasts over each client's batch
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"expected input (clients, batch, {self.in_features}), "
                f"got {x.shape}"
            )
        self._x = x
        return _dense_forward(x, self._w, self._b)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return _dense_backward(self._x, grad_output, self._w, self._dw, self._db)

    def head_backward(self, grad_output: np.ndarray) -> None:
        return _dense_backward(
            self._x, grad_output, self._w, self._dw, self._db, head=True
        )
