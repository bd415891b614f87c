"""Plain-NumPy oracles for every benchmark case, and the comparator.

Nothing here imports the program under test.  Each oracle returns the
expected reduction-object contents as one flat float64 vector in the
program's group-major layout, so the comparator is a single array check.
Inputs are dyadic, which makes every ``add``/``min`` group exact in
float64 regardless of the order the program folds it in; only the PCA
covariance (centred on a non-dyadic mean) is compared with a tolerance.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 17  # bounds the oracles' temporaries, which count towards peak RSS


def agrees(actual: np.ndarray, expected: np.ndarray, rtol: float = 0.0) -> bool:
    """Whether a result matches its oracle: exactly, or within ``rtol``."""
    actual = np.asarray(actual, dtype=np.float64).reshape(-1)
    expected = np.asarray(expected, dtype=np.float64).reshape(-1)
    if actual.shape != expected.shape:
        return False
    if rtol == 0.0:
        return bool(np.array_equal(actual, expected))
    return bool(np.allclose(actual, expected, rtol=rtol, atol=0.0))


def kmeans_iteration(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """One assignment pass: per centroid ``[count, sum_1..sum_dim, sum_min_dist]``.

    Ties go to the lowest-index centroid (the program tests ``dist < minDist``).
    """
    k, dim = centroids.shape
    out = np.zeros((k, dim + 2))
    for lo in range(0, len(points), _CHUNK):
        p = points[lo : lo + _CHUNK]
        best = np.full(len(p), np.inf)
        assign = np.zeros(len(p), dtype=np.intp)
        for c in range(k):
            d = ((p - centroids[c]) ** 2).sum(axis=1)
            closer = d < best
            best[closer] = d[closer]
            assign[closer] = c
        out[:, 0] += np.bincount(assign, minlength=k)
        for d in range(dim):
            out[:, 1 + d] += np.bincount(assign, weights=p[:, d], minlength=k)
        out[:, dim + 1] += np.bincount(assign, weights=best, minlength=k)
    return out.reshape(-1)


def centroid_update(ro: np.ndarray, old: np.ndarray) -> np.ndarray:
    """New centroids from a k-means reduction object; empty clusters keep theirs."""
    k, dim = old.shape
    groups = np.asarray(ro, dtype=np.float64).reshape(k, dim + 2)
    new = old.copy()
    filled = groups[:, 0] > 0
    new[filled] = groups[filled, 1 : 1 + dim] / groups[filled, :1]
    return new


def pca_mean(columns: np.ndarray) -> np.ndarray:
    """Mean-phase reduction object: ``m`` per-dimension sums, then the count."""
    return np.concatenate([columns.sum(axis=0), [float(len(columns))]])


def pca_cov(columns: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Covariance-phase reduction object: upper-triangular sums of centred products."""
    m = columns.shape[1]
    acc = np.zeros((m, m))
    for lo in range(0, len(columns), _CHUNK):
        centred = columns[lo : lo + _CHUNK] - mean
        acc += centred.T @ centred
    return np.triu(acc).reshape(-1)


def _bin(x: np.ndarray, lo: float, width: float, bins: int) -> np.ndarray:
    return np.clip(np.trunc((x - lo) / width), 0, bins - 1).astype(np.intp)


def histogram(x: np.ndarray, bins: int, lo: float, width: float) -> np.ndarray:
    """Per bin ``[count, sum]``; out-of-range values clamp to the end bins."""
    b = _bin(x, lo, width, bins)
    out = np.empty((bins, 2))
    out[:, 0] = np.bincount(b, minlength=bins)
    out[:, 1] = np.bincount(b, weights=x, minlength=bins)
    return out.reshape(-1)


def windowed_sum(
    x: np.ndarray, win: int, nw: int, nb: int, lo: float, width: float,
    scale: np.ndarray,
) -> np.ndarray:
    """Per window ``[count, sum of x * scale[bin(x)]]``; the tail folds into the last."""
    w = np.minimum(np.arange(len(x)) // win, nw - 1)
    out = np.empty((nw, 2))
    out[:, 0] = np.bincount(w, minlength=nw)
    out[:, 1] = np.bincount(w, weights=x * scale[_bin(x, lo, width, nb)], minlength=nw)
    return out.reshape(-1)


def window_min(x: np.ndarray, live: np.ndarray, win: int, nw: int) -> np.ndarray:
    """Per-window minimum over the live elements at their original positions."""
    w = np.minimum(np.arange(len(x)) // win, nw - 1)
    out = np.full(nw, np.inf)
    np.minimum.at(out, w[live], x[live])
    return out


def point_sum(coords: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``[sum of coord_d * w for each d, sum of w]`` over weighted points."""
    return np.concatenate([(coords * weights[:, None]).sum(axis=0), [weights.sum()]])


def figure6_sum(a1: np.ndarray) -> np.ndarray:
    """``[sum over every a1 value, record count]`` for the Figure-6 dataset."""
    return np.array([a1.sum(), float(len(a1))])
