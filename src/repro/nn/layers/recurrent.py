"""LSTM layer with full backpropagation through time."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.initializers import glorot_uniform, orthogonal
from repro.nn.module import BatchedModule, BatchedParamBinder, Module
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, child_rngs

__all__ = ["BatchedLSTM", "LSTM"]


def _lstm_forward(x, w_x, w_h, bias, return_sequences):
    """LSTM over ``x`` of shape ``(..., batch, time, features)``.

    Any leading axes (the batched layer's client axis) ride along: each
    leading slice of the operands has the plain layer's shapes and
    strides, so every matmul runs the same per-slice GEMM and the
    result is bitwise the plain layer's per slice.  ``bias`` must
    broadcast against ``(..., batch, 4 * hidden)``.  Returns the output
    and the cache :func:`_lstm_backward` needs.
    """
    t = x.shape[-2]
    lead = x.shape[:-2]
    h = w_h.shape[-2]
    hs = np.zeros((t + 1,) + lead + (h,), dtype=float)
    cs = np.zeros((t + 1,) + lead + (h,), dtype=float)
    gates = np.zeros((t,) + lead + (4 * h,), dtype=float)
    for step in range(t):
        z = x[..., step, :] @ w_x + hs[step] @ w_h + bias
        i = sigmoid(z[..., :h])
        f = sigmoid(z[..., h : 2 * h])
        g = np.tanh(z[..., 2 * h : 3 * h])
        o = sigmoid(z[..., 3 * h :])
        cs[step + 1] = f * cs[step] + i * g
        hs[step + 1] = o * np.tanh(cs[step + 1])
        gates[step] = np.concatenate([i, f, g, o], axis=-1)
    cache = {"x": x, "hs": hs, "cs": cs, "gates": gates}
    if return_sequences:
        return np.moveaxis(hs[1:], 0, -2), cache
    return hs[-1].copy(), cache


def _lstm_backward(grad_output, cache, w_x, w_h, dw_x, dw_h, db, return_sequences):
    """Backpropagation through time for :func:`_lstm_forward`.

    Accumulates into ``dw_x``/``dw_h``/``db`` in place and returns the
    input gradient; the bias gradient reduces over the batch axis only.
    """
    if cache is None:
        raise RuntimeError("backward called before forward")
    x = cache["x"]
    hs = cache["hs"]
    cs = cache["cs"]
    gates = cache["gates"]
    t = x.shape[-2]
    lead = x.shape[:-2]
    h = w_h.shape[-2]

    if return_sequences:
        expected = lead + (t, h)
    else:
        expected = lead + (h,)
    if grad_output.shape != expected:
        raise ValueError(
            f"expected gradient shape {expected}, got {grad_output.shape}"
        )
    if return_sequences:
        grad_h_seq = np.moveaxis(grad_output, -2, 0)
    else:
        grad_h_seq = np.zeros((t,) + lead + (h,), dtype=float)
        grad_h_seq[-1] = grad_output

    dx = np.zeros_like(x)
    dh_next = np.zeros(lead + (h,), dtype=float)
    dc_next = np.zeros(lead + (h,), dtype=float)
    for step in range(t - 1, -1, -1):
        i = gates[step][..., :h]
        f = gates[step][..., h : 2 * h]
        g = gates[step][..., 2 * h : 3 * h]
        o = gates[step][..., 3 * h :]
        c = cs[step + 1]
        tanh_c = np.tanh(c)

        dh = grad_h_seq[step] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c**2)

        di = dc * g * i * (1.0 - i)
        df = dc * cs[step] * f * (1.0 - f)
        dg = dc * i * (1.0 - g**2)
        do = dh * tanh_c * o * (1.0 - o)
        dz = np.concatenate([di, df, dg, do], axis=-1)

        dw_x += x[..., step, :].swapaxes(-1, -2) @ dz
        dw_h += hs[step].swapaxes(-1, -2) @ dz
        db += dz.sum(axis=-2)

        dx[..., step, :] = dz @ w_x.swapaxes(-1, -2)
        dh_next = dz @ w_h.swapaxes(-1, -2)
        dc_next = dc * f
    return dx


class LSTM(Module):
    """A single LSTM layer over ``(batch, time, features)`` inputs.

    Gate ordering inside the fused kernels is ``[input, forget, cell,
    output]``.  With ``return_sequences=True`` the layer emits the full
    hidden sequence ``(batch, time, hidden)``; otherwise only the final
    hidden state ``(batch, hidden)``.  The forget-gate bias is
    initialised to 1, the standard trick for stable early training.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: RngLike = None,
        return_sequences: bool = True,
        name: str = "lstm",
    ) -> None:
        if input_size < 1 or hidden_size < 1:
            raise ValueError("input_size and hidden_size must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences
        rng_x, rng_h = child_rngs(rng, 2)
        h = hidden_size
        self.w_x = Parameter(
            glorot_uniform((input_size, 4 * h), rng_x), name=f"{name}.w_x"
        )
        recurrent = np.concatenate(
            [orthogonal((h, h), rng_h) for _ in range(4)], axis=1
        )
        self.w_h = Parameter(recurrent, name=f"{name}.w_h")
        bias = np.zeros(4 * h, dtype=float)
        bias[h : 2 * h] = 1.0  # forget-gate bias
        self.bias = Parameter(bias, name=f"{name}.bias")
        self._cache: dict | None = None

    def parameters(self) -> List[Parameter]:
        return [self.w_x, self.w_h, self.bias]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(
                f"expected input (batch, time, {self.input_size}), got {x.shape}"
            )
        out, self._cache = _lstm_forward(
            x, self.w_x.data, self.w_h.data, self.bias.data, self.return_sequences
        )
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return _lstm_backward(
            grad_output, self._cache, self.w_x.data, self.w_h.data,
            self.w_x.grad, self.w_h.grad, self.bias.grad, self.return_sequences,
        )

    def batched(self, binder: BatchedParamBinder) -> "BatchedLSTM":
        return BatchedLSTM(self, binder)


class BatchedLSTM(BatchedModule):
    """:class:`LSTM` over ``(clients, batch, time, features)`` inputs,
    with each client's weights a row of the binder's stacked views."""

    def __init__(self, layer: LSTM, binder: BatchedParamBinder) -> None:
        self.input_size = layer.input_size
        self.return_sequences = layer.return_sequences
        self._w_x, self._dw_x = binder.bind(layer.w_x)  # (C, in, 4h)
        self._w_h, self._dw_h = binder.bind(layer.w_h)  # (C, h, 4h)
        b, self._db = binder.bind(layer.bias)  # (C, 4h)
        self._b = b[:, None, :]  # broadcasts over each client's batch
        self._cache: dict | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        if x.ndim != 4 or x.shape[3] != self.input_size:
            raise ValueError(
                "expected input (clients, batch, time, "
                f"{self.input_size}), got {x.shape}"
            )
        out, self._cache = _lstm_forward(
            x, self._w_x, self._w_h, self._b, self.return_sequences
        )
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return _lstm_backward(
            grad_output, self._cache, self._w_x, self._w_h,
            self._dw_x, self._dw_h, self._db, self.return_sequences,
        )
