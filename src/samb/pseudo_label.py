"""Pseudo-labels for the target domain: probability-weighted k-means
centers, nearest-center assignment, and a single hard-mean refinement
round.  Operates on detached feature matrices, no gradients involved."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

_EPS = 1e-12


def _distances(feats: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances [T, K]."""
    fn = np.linalg.norm(feats, axis=1)
    cn = np.linalg.norm(centers, axis=1)
    if np.any(fn < _EPS):
        raise NumericError("cosine distance undefined for zero-norm feature")
    if np.any(cn < _EPS):
        raise NumericError("cosine distance undefined for zero-norm center")
    return 1.0 - (feats @ centers.T) / np.outer(fn, cn)


def weighted_centers(feats: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """c_k = sum_i p[i,k] f[i] / sum_i p[i,k].

    A class whose total probability mass is below 1e-12 gets the feature of
    its max-probability sample as a fallback center (with a warning).
    """
    feats = np.asarray(feats, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    mass = probs.sum(axis=0)                       # [K]
    centers = np.zeros((probs.shape[1], feats.shape[1]))
    for k in range(probs.shape[1]):
        if mass[k] < _EPS:
            warnings.warn(f"pseudo-label class {k} has no probability mass")
            centers[k] = feats[np.argmax(probs[:, k])]
        else:
            centers[k] = (probs[:, k] @ feats) / mass[k]
    return centers


def assign_labels(feats: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center label per sample; ties break to the lower index."""
    if not np.all(np.isfinite(centers)):
        raise NumericError("assign_labels: non-finite cluster center")
    return np.argmin(_distances(np.asarray(feats, dtype=np.float64),
                                np.asarray(centers, dtype=np.float64)),
                     axis=1).astype(np.int64)


def refine(feats: np.ndarray, labels: np.ndarray, num_classes: int,
           prev_centers: np.ndarray):
    """One hard-mean recentering plus re-assignment.

    Empty classes keep their previous center.  Returns (centers, labels).
    """
    feats = np.asarray(feats, dtype=np.float64)
    centers = np.array(prev_centers, dtype=np.float64, copy=True)
    for k in range(num_classes):
        mask = labels == k
        if mask.any():
            centers[k] = feats[mask].mean(axis=0)
    new_labels = assign_labels(feats, centers)
    return centers, new_labels


@dataclass
class PseudoLabelTable:
    """Row i describes sample i of the clustered split."""
    initial_labels: np.ndarray  # [T] y_t
    labels: np.ndarray          # [T] y_t* after refinement
    distances: np.ndarray       # [T] distance to the assigned refined center
    max_probs: np.ndarray       # [T] classifier confidence used as weights
    centers: np.ndarray         # [K, d] weighted centers
    refined_centers: np.ndarray  # [K, d]


def build_table(feats: np.ndarray, probs: np.ndarray) -> PseudoLabelTable:
    """Full pipeline: weighted centers -> labels -> one refinement round."""
    centers = weighted_centers(feats, probs)
    y0 = assign_labels(feats, centers)
    centers_star, y_star = refine(feats, y0, probs.shape[1], centers)
    dist = _distances(feats, centers_star)[np.arange(len(y_star)), y_star]
    return PseudoLabelTable(initial_labels=y0, labels=y_star, distances=dist,
                            max_probs=probs.max(axis=1), centers=centers,
                            refined_centers=centers_star)
