import numpy as np
import pytest

from samb.errors import NumericError
from samb.pseudo_label import (assign_labels, build_table, refine,
                               weighted_centers)


def brute_force_weighted_centers(feats, probs):
    t, d = feats.shape
    k = probs.shape[1]
    centers = np.zeros((k, d))
    for kk in range(k):
        num = np.zeros(d)
        den = 0.0
        for i in range(t):
            num += probs[i, kk] * feats[i]
            den += probs[i, kk]
        centers[kk] = num / den
    return centers


def brute_force_labels(feats, centers):
    labels = np.zeros(len(feats), dtype=np.int64)
    for i, f in enumerate(feats):
        dists = [1.0 - f @ c / (np.linalg.norm(f) * np.linalg.norm(c))
                 for c in centers]
        labels[i] = int(np.argmin(dists))
    return labels


def make_blobs(rng, k=3, per=50, d=8, sep=6.0, sigma=1.0):
    """Well-separated clusters with pairwise-orthogonal mean directions."""
    dirs = np.linalg.qr(rng.standard_normal((d, d)))[0][:k]
    feats, labels = [], []
    for kk in range(k):
        feats.append(dirs[kk] * sep + sigma * rng.standard_normal((per, d)))
        labels.extend([kk] * per)
    return np.concatenate(feats), np.array(labels)


class TestWeightedCenters:
    def test_uniform_probs_give_global_mean(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((10, 4))
        probs = np.full((10, 3), 1.0 / 3.0)
        centers = weighted_centers(feats, probs)
        for c in centers:
            assert np.abs(c - feats.mean(axis=0)).max() < 1e-12

    def test_one_hot_balanced_gives_class_means(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((9, 4))
        labels = np.array([0, 1, 2] * 3)
        probs = np.eye(3)[labels]
        centers = weighted_centers(feats, probs)
        for k in range(3):
            assert np.abs(centers[k] - feats[labels == k].mean(axis=0)).max() < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((20, 5))
        probs = rng.random((20, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.abs(weighted_centers(feats, probs)
                      - brute_force_weighted_centers(feats, probs)).max() < 1e-10

    def test_empty_class_fallback(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        probs = np.array([[1.0, 1e-15], [1.0, 0.0]])
        with pytest.warns(UserWarning, match="class 1"):
            centers = weighted_centers(feats, probs)
        # the fallback is the max-probability sample's feature
        assert np.array_equal(centers[1], feats[0])


class TestAssignLabels:
    def test_feature_equal_to_center(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert assign_labels(np.array([[0.0, 2.0]]), centers).tolist() == [1]

    def test_tie_breaks_low_index(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = assign_labels(np.array([[1.0, 1.0]]), centers)
        assert labels.tolist() == [0]

    def test_zero_norm_feature(self):
        with pytest.raises(NumericError):
            assign_labels(np.zeros((1, 3)), np.ones((2, 3)))

    def test_orthogonal_blobs_match_brute_force(self):
        rng = np.random.default_rng(3)
        dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
        feats = np.concatenate([
            dirs[0] * 5 + 0.3 * rng.standard_normal((50, 2)),
            dirs[1] * 5 + 0.3 * rng.standard_normal((50, 2))])
        centers = np.array([dirs[0] * 5, dirs[1] * 5])
        got = assign_labels(feats, centers)
        assert np.array_equal(got, brute_force_labels(feats, centers))


class TestRefine:
    def test_fixed_point(self):
        rng = np.random.default_rng(4)
        feats, labels = make_blobs(rng, sep=10.0, sigma=0.5)
        centers = np.stack([feats[labels == k].mean(axis=0) for k in range(3)])
        converged = assign_labels(feats, centers)
        _, labels2 = refine(feats, converged, 3, centers)
        assert np.array_equal(labels2, converged)

    def test_separated_blobs_fully_recovered(self):
        rng = np.random.default_rng(5)
        feats, truth = make_blobs(rng, sep=6.0, sigma=1.0)
        probs = rng.random((len(feats), 3))
        probs = 0.2 * probs / probs.sum(axis=1, keepdims=True) + 0.8 * np.eye(3)[truth]
        centers = weighted_centers(feats, probs)
        y0 = assign_labels(feats, centers)
        _, y_star = refine(feats, y0, 3, centers)
        assert np.array_equal(y_star, truth)

    def test_centers_match_brute_force_means(self):
        rng = np.random.default_rng(6)
        feats, labels = make_blobs(rng)
        centers, _ = refine(feats, labels, 3, np.zeros((3, feats.shape[1])))
        for k in range(3):
            manual = feats[labels == k].sum(axis=0) / (labels == k).sum()
            assert np.abs(centers[k] - manual).max() < 1e-12

    def test_empty_class_keeps_previous_center(self):
        feats = np.ones((4, 2))
        prev = np.array([[9.0, 9.0], [1.0, 1.0]])
        centers, _ = refine(feats, np.ones(4, dtype=int), 2, prev)
        assert np.array_equal(centers[0], prev[0])

    def test_lloyd_step_does_not_increase_objective(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            r = np.random.default_rng(seed)
            feats, _ = make_blobs(r, sep=2.0, sigma=1.5)
            centers = feats[r.choice(len(feats), 3, replace=False)]
            y0 = assign_labels(feats, centers)
            centers2, y1 = refine(feats, y0, 3, centers)

            def objective(c, y):
                fn = np.linalg.norm(feats, axis=1)
                cn = np.linalg.norm(c, axis=1)
                d = 1.0 - (feats * c[y]).sum(axis=1) / (fn * cn[y])
                return d.sum()

            assert objective(centers2, y1) <= objective(centers, y0) + 1e-10


class TestPermutationEquivariance:
    def test_permuting_prob_columns_permutes_everything(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((30, 4)) + 3.0
        probs = rng.random((30, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        perm = np.array([2, 0, 1])
        t1 = build_table(feats, probs)
        t2 = build_table(feats, probs[:, perm])
        inv = np.argsort(perm)
        assert np.array_equal(inv[t1.labels], t2.labels)
        assert np.abs(t1.refined_centers - t2.refined_centers[inv]).max() < 1e-12

