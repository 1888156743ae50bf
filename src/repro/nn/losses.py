"""Loss functions with fused, numerically stable gradients.

Each loss exposes ``forward(predictions, targets) -> float`` (mean loss
over the batch) and ``backward() -> grad`` w.r.t. the predictions.  The
softmax/sigmoid are fused into the cross-entropy losses so the gradient
is the plain ``probabilities - onehot`` form.

Each loss's arithmetic is one kernel pair that reduces over the last
axis and lets any leading axes ride along; the batched counterparts
call it with a leading client axis and get a ``(clients,)`` vector,
the plain losses call it with none and return its value as a float.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.nn.activations import sigmoid, softmax
from repro.nn.module import BatchedUnsupported

__all__ = [
    "BatchedLoss",
    "BatchedMeanSquaredError",
    "BatchedSigmoidBinaryCrossEntropy",
    "BatchedSoftmaxCrossEntropy",
    "Loss",
    "MeanSquaredError",
    "SigmoidBinaryCrossEntropy",
    "SoftmaxCrossEntropy",
]


def _softmax_ce(predictions, targets):
    """Mean cross-entropy over the last axis of ``targets`` (the batch),
    and the cache :func:`_softmax_ce_grad` needs."""
    targets = np.asarray(targets)
    if targets.shape != predictions.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match batch "
            f"{predictions.shape[:-1]}"
        )
    if not np.issubdtype(targets.dtype, np.integer):
        raise TypeError("SoftmaxCrossEntropy expects integer class targets")
    probs = softmax(predictions, axis=-1)
    # Open-mesh row indices plus the targets pick each row's class.
    pick = np.indices(targets.shape, sparse=True) + (targets,)
    loss = -np.mean(np.log(np.clip(probs[pick], 1e-12, None)), axis=-1)
    return loss, (probs, pick)


def _softmax_ce_grad(cache):
    if cache is None:
        raise RuntimeError("backward called before forward")
    probs, pick = cache
    grad = probs.copy()
    grad[pick] -= 1.0
    targets = pick[-1]
    return grad / targets.shape[-1]


def _sigmoid_bce(predictions, targets, lead):
    """Mean binary cross-entropy over all but the first ``lead`` axes."""
    logits = predictions.reshape(predictions.shape[:lead] + (-1,))
    targets = np.asarray(targets, dtype=float).reshape(logits.shape[:lead] + (-1,))
    if logits.shape != targets.shape:
        raise ValueError(
            f"predictions {predictions.shape} and targets do not align"
        )
    # log(1 + exp(-|z|)) + max(z, 0) - z*y  is the stable BCE form.
    loss = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0)
    loss -= logits * targets
    probs = sigmoid(logits)
    return np.mean(loss, axis=-1), (probs, targets, predictions.shape)


def _sigmoid_bce_grad(cache):
    if cache is None:
        raise RuntimeError("backward called before forward")
    probs, targets, shape = cache
    grad = (probs - targets) / targets.shape[-1]
    return grad.reshape(shape)


def _mse(predictions, targets, lead):
    """Mean squared difference over all but the first ``lead`` axes."""
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"shape mismatch: {predictions.shape} vs {targets.shape}"
        )
    diff = predictions - targets
    sq = diff**2
    return np.mean(sq.reshape(sq.shape[:lead] + (-1,)), axis=-1), diff


def _mse_grad(diff, lead):
    if diff is None:
        raise RuntimeError("backward called before forward")
    return 2.0 * diff / math.prod(diff.shape[lead:])


class Loss:
    """Base class: call ``forward`` then ``backward`` once per step."""

    _cache: Any = None  # what forward leaves for backward

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def batched(self) -> "BatchedLoss":
        """Build this loss's batched-leading-axis counterpart.

        Losses without one raise
        :class:`~repro.nn.module.BatchedUnsupported`, which the batched
        executor treats as "fall back to the per-client path".
        """
        raise BatchedUnsupported(
            f"{type(self).__name__} has no batched counterpart"
        )

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


class BatchedLoss:
    """Per-client loss over stacked predictions.

    ``forward`` takes ``(clients, batch, ...)`` predictions/targets and
    returns a ``(clients,)`` float64 vector; ``backward`` returns the
    stacked prediction gradient.  Both run the plain loss's kernel, so
    every entry is bitwise the plain loss on that client's slice.
    """

    _cache: Any = None  # what forward leaves for backward

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        return self.forward(predictions, targets)


class SoftmaxCrossEntropy(Loss):
    """Multi-class cross-entropy over logits with integer class targets.

    ``predictions``: logits ``(batch, classes)``;
    ``targets``: integer labels ``(batch,)``.
    """

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        if predictions.ndim != 2:
            raise ValueError(f"expected 2-D logits, got shape {predictions.shape}")
        loss, self._cache = _softmax_ce(predictions, targets)
        return float(loss)

    def backward(self) -> np.ndarray:
        return _softmax_ce_grad(self._cache)

    def batched(self) -> "BatchedSoftmaxCrossEntropy":
        return BatchedSoftmaxCrossEntropy()


class BatchedSoftmaxCrossEntropy(BatchedLoss):
    """:class:`SoftmaxCrossEntropy` over ``(C, batch, classes)`` logits
    and ``(C, batch)`` integer targets."""

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        if predictions.ndim != 3:
            raise ValueError(
                f"expected 3-D stacked logits, got shape {predictions.shape}"
            )
        loss, self._cache = _softmax_ce(predictions, targets)
        return loss

    def backward(self) -> np.ndarray:
        return _softmax_ce_grad(self._cache)


class SigmoidBinaryCrossEntropy(Loss):
    """Binary cross-entropy over a single logit per example.

    ``predictions``: logits ``(batch,)`` or ``(batch, 1)``;
    ``targets``: labels in {0, 1} of matching shape.
    """

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        loss, self._cache = _sigmoid_bce(predictions, targets, lead=0)
        return float(loss)

    def backward(self) -> np.ndarray:
        return _sigmoid_bce_grad(self._cache)

    def batched(self) -> "BatchedSigmoidBinaryCrossEntropy":
        return BatchedSigmoidBinaryCrossEntropy()


class BatchedSigmoidBinaryCrossEntropy(BatchedLoss):
    """:class:`SigmoidBinaryCrossEntropy` over stacked ``(C, batch)`` or
    ``(C, batch, 1)`` logits."""

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        if predictions.ndim < 2:
            raise ValueError(
                f"expected stacked logits with a leading client axis, got "
                f"shape {predictions.shape}"
            )
        loss, self._cache = _sigmoid_bce(predictions, targets, lead=1)
        return loss

    def backward(self) -> np.ndarray:
        return _sigmoid_bce_grad(self._cache)


class MeanSquaredError(Loss):
    """Mean of squared differences, averaged over every element."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        loss, self._cache = _mse(predictions, targets, lead=0)
        return float(loss)

    def backward(self) -> np.ndarray:
        return _mse_grad(self._cache, lead=0)

    def batched(self) -> "BatchedMeanSquaredError":
        return BatchedMeanSquaredError()


class BatchedMeanSquaredError(BatchedLoss):
    """:class:`MeanSquaredError` per client: each client's loss is the
    mean over its own ``(batch, ...)`` block."""

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        if predictions.ndim < 2:
            raise ValueError(
                f"expected stacked predictions with a leading client axis, "
                f"got shape {predictions.shape}"
            )
        loss, self._cache = _mse(predictions, targets, lead=1)
        return loss

    def backward(self) -> np.ndarray:
        return _mse_grad(self._cache, lead=1)
