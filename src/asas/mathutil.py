"""Small shared numeric helpers."""
from __future__ import annotations

import numpy as np


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Stable log(sum(exp(a))) along ``axis``."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis)


def log_softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a - np.expand_dims(logsumexp(a, axis=axis), axis)


def as_float(a) -> np.ndarray:
    """``a`` as an array of its own floating dtype, or of float64 if it has none."""
    a = np.asarray(a)
    return a if np.issubdtype(a.dtype, np.floating) else a.astype(float)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Stable logistic function, no overflow for any finite z; computed in
    ``z``'s floating dtype, or in float64 for integer and list input."""
    z = as_float(z)
    return sigmoid_from_exp(z, np.exp(-np.abs(z)))


def sigmoid_from_exp(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``sigmoid`` of the float array ``z``, given ``e = exp(-|z|)`` in its dtype."""
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)
