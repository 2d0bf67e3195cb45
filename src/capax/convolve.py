"""Linear convolution of grid functions with tabulated kernels.

Kernels live on the centered offset lattice {k h : |k| <= N-1} per axis,
stored as arrays of shape (2N-1,)^dim with offset 0 at index N-1. The fast
path zero-pads to period 2N and multiplies real FFTs; the direct path is
plain O(N^{2 dim}) summation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["wrap_from_centered", "fft_linear_convolve", "direct_linear_convolve"]


def wrap_from_centered(centered: np.ndarray) -> np.ndarray:
    """Rearrange a centered offset table into circular (wrap-around) layout.

    Index m of the wrap array represents offset m for m < N and m - 2N for
    m >= N; the slot at offset -N is never touched by the padded convolution
    and is filled with the offset -(N-1) value to keep the table positive.
    """
    two_n_minus_1 = centered.shape[0]
    N = (two_n_minus_1 + 1) // 2
    idx = np.concatenate([np.arange(N - 1, 2 * N - 1), [0], np.arange(0, N - 1)])
    return centered[np.ix_(*([idx] * centered.ndim))]


def fft_linear_convolve(values: np.ndarray, centered: np.ndarray, kernel_rfft=None) -> np.ndarray:
    """Zero-padded FFT linear convolution, output on the original grid."""
    N = values.shape[0]
    dim = values.ndim
    padded_shape = (2 * N,) * dim
    axes = tuple(range(dim))
    if kernel_rfft is None:
        kernel_rfft = np.fft.rfftn(wrap_from_centered(centered), s=padded_shape, axes=axes)
    f_hat = np.fft.rfftn(values, s=padded_shape, axes=axes)
    full = np.fft.irfftn(f_hat * kernel_rfft, s=padded_shape, axes=axes)
    return full[(slice(0, N),) * dim].copy()


def direct_linear_convolve(values: np.ndarray, centered: np.ndarray) -> np.ndarray:
    """Direct summation: out[i] = sum_j centered[i - j + (N-1)] * values[j]."""
    N = values.shape[0]
    dim = values.ndim
    rev = (slice(None, None, -1),) * dim
    out = np.empty_like(values, dtype=float)
    for idx in np.ndindex(values.shape):
        block = centered[tuple(slice(k, k + N) for k in idx)]
        out[idx] = np.sum(block[rev] * values)
    return out

