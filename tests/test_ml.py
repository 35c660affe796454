"""Tests for the ML substrate (repro.ml)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strategies import STANDARD_SETTINGS

from repro.ml import (
    DBSCAN,
    MLP,
    Adam,
    LSTMAutoencoder,
    LinearSVM,
    MinMaxScaler,
    QueryEmbedder,
    RandomForest,
    RegressionTree,
    StandardScaler,
    SVMClassifier,
    Vocabulary,
    assign_noise_to_nearest,
    entropy,
    fanova_importance,
    mutual_information,
    normalized_mutual_information,
    tokenize_sql,
)
from repro.ml.pca import PCA


def _blobs(rng, centers, n=20, std=0.05):
    parts = [rng.normal(c, std, size=(n, len(c))) for c in centers]
    labels = np.repeat(np.arange(len(centers)), n)
    return np.vstack(parts), labels


class TestDBSCAN:
    def test_separates_blobs(self, rng):
        X, truth = _blobs(rng, [(0, 0), (3, 3)])
        labels = DBSCAN(eps=0.5, min_samples=4).fit_predict(X)
        assert len(set(labels[truth == 0])) == 1
        assert len(set(labels[truth == 1])) == 1
        assert labels[0] != labels[-1]

    def test_far_point_is_noise(self, rng):
        X, _ = _blobs(rng, [(0, 0)])
        X = np.vstack([X, [[50.0, 50.0]]])
        labels = DBSCAN(eps=0.5, min_samples=4).fit_predict(X)
        assert labels[-1] == -1

    def test_empty_input(self):
        labels = DBSCAN().fit_predict(np.empty((0, 2)))
        assert labels.shape == (0,)

    def test_single_cluster_when_dense(self, rng):
        X = rng.normal(0, 0.01, size=(30, 2))
        labels = DBSCAN(eps=0.5, min_samples=3).fit_predict(X)
        assert set(labels) == {0}

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DBSCAN(eps=0.0)
        with pytest.raises(ValueError):
            DBSCAN(min_samples=0)

    def test_assign_noise_to_nearest(self, rng):
        X, _ = _blobs(rng, [(0, 0), (5, 5)], n=10)
        X = np.vstack([X, [[4.5, 4.5]]])
        labels = DBSCAN(eps=0.4, min_samples=4).fit_predict(X)
        fixed = assign_noise_to_nearest(X, labels)
        assert -1 not in fixed
        assert fixed[-1] == fixed[10]  # joined the (5,5) cluster

    def test_assign_noise_all_noise(self, rng):
        X = rng.random((5, 2)) * 100
        labels = np.full(5, -1)
        fixed = assign_noise_to_nearest(X, labels)
        assert set(fixed) == {0}


class TestSVM:
    def test_linear_separable(self, rng):
        X, y = _blobs(rng, [(0, 0), (3, 3)], std=0.2)
        machine = LinearSVM().fit(X, np.where(y == 0, -1.0, 1.0))
        pred = np.sign(machine.decision_function(X))
        assert (pred == np.where(y == 0, -1.0, 1.0)).mean() > 0.95

    def test_multiclass(self, rng):
        X, y = _blobs(rng, [(0, 0), (4, 0), (0, 4)], std=0.3)
        clf = SVMClassifier(seed=1).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.9

    def test_nonlinear_boundary_with_rff(self, rng):
        # ring vs centre: not linearly separable
        angles = rng.uniform(0, 2 * np.pi, 60)
        ring = np.column_stack([2 * np.cos(angles), 2 * np.sin(angles)])
        ring += rng.normal(0, 0.1, ring.shape)
        center = rng.normal(0, 0.3, size=(60, 2))
        X = np.vstack([center, ring])
        y = np.array([0] * 60 + [1] * 60)
        clf = SVMClassifier(n_features=200, gamma=1.0, seed=2).fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.85

    def test_single_class_degenerate(self, rng):
        X = rng.random((10, 2))
        clf = SVMClassifier().fit(X, np.zeros(10))
        assert set(clf.predict(X)) == {0}

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SVMClassifier().predict(np.zeros((1, 2)))


class TestMutualInformation:
    def test_identical_clusterings_nmi_one(self):
        assert normalized_mutual_information([0, 0, 1, 1], [5, 5, 9, 9]) == 1.0

    def test_independent_clusterings_low(self):
        a = [0, 0, 1, 1] * 25
        b = [0, 1] * 50
        assert normalized_mutual_information(a, b) < 0.05

    def test_symmetry(self, rng):
        a = rng.integers(0, 3, 50).tolist()
        b = rng.integers(0, 4, 50).tolist()
        assert mutual_information(a, b) == pytest.approx(mutual_information(b, a))

    def test_entropy_uniform(self):
        assert entropy([0, 1, 2, 3]) == pytest.approx(np.log(4))

    def test_entropy_constant_zero(self):
        assert entropy([7] * 10) == 0.0

    def test_single_cluster_both_sides(self):
        assert normalized_mutual_information([0, 0], [1, 1]) == 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            mutual_information([0, 1], [0])

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=2,
                    max_size=40))
    @STANDARD_SETTINGS
    def test_nmi_bounds(self, labels):
        other = list(reversed(labels))
        nmi = normalized_mutual_information(labels, other)
        assert 0.0 <= nmi <= 1.0


class TestScalersPCA:
    def test_standard_scaler_roundtrip(self, rng):
        X = rng.normal(5, 3, size=(30, 4))
        scaler = StandardScaler().fit(X)
        assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X)

    def test_standard_scaler_output_stats(self, rng):
        X = rng.normal(5, 3, size=(200, 3))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1, atol=1e-9)

    def test_degenerate_column_no_nan(self):
        X = np.ones((10, 2))
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))

    def test_minmax_range(self, rng):
        X = rng.normal(size=(50, 3))
        Z = MinMaxScaler().fit_transform(X)
        assert Z.min() >= 0.0 and Z.max() <= 1.0

    def test_minmax_roundtrip(self, rng):
        X = rng.normal(size=(20, 2))
        scaler = MinMaxScaler().fit(X)
        assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X)

    def test_use_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((1, 2)))

    def test_pca_recovers_dominant_direction(self, rng):
        t = rng.normal(size=200)
        X = np.column_stack([t, 2 * t + rng.normal(0, 0.01, 200)])
        pca = PCA(1).fit(X)
        direction = pca.components_[0] / np.linalg.norm(pca.components_[0])
        expected = np.array([1.0, 2.0]) / np.sqrt(5)
        assert abs(abs(direction @ expected) - 1.0) < 1e-3

    def test_pca_pads_when_rank_deficient(self):
        X = np.ones((3, 2))
        Z = PCA(4).fit_transform(X)
        assert Z.shape == (3, 4)


class TestMLP:
    def test_learns_linear_function(self, rng):
        X = rng.random((128, 3))
        y = (X @ np.array([1.0, -2.0, 0.5]))[:, None]
        net = MLP([3, 16, 1], ["relu", "linear"], lr=5e-3, seed=0)
        losses = [net.train_step_mse(X, y) for _ in range(400)]
        assert losses[-1] < 0.1 * losses[0]

    def test_gradient_matches_finite_difference(self, rng):
        net = MLP([2, 4, 1], ["tanh", "linear"], seed=3)
        x = rng.random((1, 2))
        y = np.array([[0.7]])
        pred = net.forward(x)
        diff = pred - y
        grad_out = 2.0 * diff / diff.size
        _, grads = net.backward(grad_out)
        W = net.layers[0].W
        eps = 1e-6
        loss = lambda: float(np.mean((net.forward(x) - y) ** 2))
        W[0, 0] += eps
        hi = loss()
        W[0, 0] -= 2 * eps
        lo = loss()
        W[0, 0] += eps
        fd = (hi - lo) / (2 * eps)
        assert grads[0][0, 0] == pytest.approx(fd, rel=1e-3, abs=1e-6)

    def test_polyak_copy(self):
        a = MLP([2, 3, 1], ["relu", "linear"], seed=0)
        b = MLP([2, 3, 1], ["relu", "linear"], seed=1)
        before = b.layers[0].W.copy()
        b.copy_from(a, tau=0.5)
        assert np.allclose(b.layers[0].W, 0.5 * before + 0.5 * a.layers[0].W)

    def test_bad_activation_raises(self):
        with pytest.raises(ValueError):
            MLP([2, 2], ["bogus"])

    def test_adam_moves_toward_minimum(self):
        p = np.array([5.0])
        opt = Adam([p], lr=0.1)
        for _ in range(200):
            opt.step([2 * p])  # gradient of p^2
        assert abs(p[0]) < 0.5


class TestTokenizerLSTM:
    def test_tokenize_normalizes_literals(self):
        tokens = tokenize_sql("SELECT * FROM t WHERE id = 42 AND name = 'bob'")
        assert "<num>" in tokens and "<str>" in tokens
        assert "42" not in tokens

    def test_tokenize_keywords_lowercased(self):
        tokens = tokenize_sql("SELECT a FROM b")
        assert tokens[0] == "select" and "from" in tokens

    def test_same_template_same_tokens(self):
        a = tokenize_sql("SELECT * FROM t WHERE id = 1")
        b = tokenize_sql("SELECT * FROM t WHERE id = 999")
        assert a == b

    def test_vocabulary_encode_decode(self):
        vocab = Vocabulary()
        vocab.fit([["select", "a"], ["insert", "b"]])
        ids = vocab.encode(["select", "a"])
        decoded = vocab.decode(ids)
        assert decoded[0] == Vocabulary.BOS and decoded[-1] == Vocabulary.EOS
        assert "select" in decoded

    def test_vocabulary_unknown_token(self):
        vocab = Vocabulary()
        ids = vocab.encode(["neverseen"])
        assert vocab.decode(ids)[1] == Vocabulary.UNK

    def test_encode_truncation(self):
        vocab = Vocabulary()
        vocab.fit([["a"] * 100])
        ids = vocab.encode(["a"] * 100, max_len=10)
        assert len(ids) == 10 and ids[-1] == vocab.eos_id

    def test_autoencoder_loss_decreases(self):
        vocab = Vocabulary()
        streams = [["select", "a", "from", "t"], ["insert", "into", "t"]]
        vocab.fit(streams)
        model = LSTMAutoencoder(len(vocab), embed_dim=8, hidden_dim=12,
                                lr=1e-2, seed=0)
        seqs = [vocab.encode(s) for s in streams]
        first = sum(model.train_step(s) for s in seqs)
        for _ in range(30):
            for s in seqs:
                model.train_step(s)
        last = sum(model.train_step(s) for s in seqs)
        assert last < first

    def test_encoder_deterministic(self):
        model = LSTMAutoencoder(10, embed_dim=4, hidden_dim=6, seed=0)
        assert np.allclose(model.encode([1, 2, 3]), model.encode([1, 2, 3]))

    def test_query_embedder_distinguishes_query_types(self):
        reads = ["SELECT * FROM t WHERE id = %d" % i for i in range(10)]
        writes = ["INSERT INTO t (a) VALUES (%d)" % i for i in range(10)]
        embedder = QueryEmbedder(embed_dim=8, hidden_dim=12, epochs=4, seed=0)
        embedder.fit(reads + writes)
        read_vec = embedder.embed_workload(reads)
        write_vec = embedder.embed_workload(writes)
        assert np.linalg.norm(read_vec - write_vec) > 1e-3

    def test_embedder_cache_consistency(self):
        embedder = QueryEmbedder(epochs=1, seed=0)
        embedder.fit(["SELECT a FROM b"])
        v1 = embedder.embed("SELECT a FROM b WHERE id = 1")
        v2 = embedder.embed("SELECT a FROM b WHERE id = 2")
        assert np.allclose(v1, v2)  # same template -> same embedding

    def test_embed_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            QueryEmbedder().embed("SELECT 1")

    def test_embed_workload_empty(self):
        embedder = QueryEmbedder(epochs=1, seed=0)
        embedder.fit(["SELECT a FROM b"])
        assert np.allclose(embedder.embed_workload([]), 0.0)


class TestForestFanova:
    def test_tree_fits_step_function(self, rng):
        X = rng.random((100, 1))
        y = (X[:, 0] > 0.5).astype(float)
        tree = RegressionTree(max_depth=3).fit(X, y)
        pred = tree.predict(X)
        assert np.mean((pred - y) ** 2) < 0.05

    def test_tree_constant_target(self, rng):
        X = rng.random((20, 2))
        tree = RegressionTree().fit(X, np.full(20, 3.0))
        assert np.allclose(tree.predict(X), 3.0)

    def test_forest_better_than_worst_tree(self, rng):
        X = rng.random((150, 3))
        y = np.sin(4 * X[:, 0]) + 0.3 * X[:, 1]
        forest = RandomForest(n_trees=10, seed=0).fit(X, y)
        assert np.mean((forest.predict(X) - y) ** 2) < 0.1

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForest().predict(np.zeros((1, 2)))
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_fanova_identifies_dominant_knob(self, rng):
        X = rng.random((120, 5))
        y = 5.0 * X[:, 2] + 0.2 * X[:, 0]
        imp = fanova_importance(X, y, seed=0)
        assert np.argmax(imp) == 2
        assert imp[2] > 0.5

    def test_fanova_constant_response_zero(self, rng):
        X = rng.random((50, 3))
        assert np.allclose(fanova_importance(X, np.ones(50)), 0.0)

    def test_fanova_too_few_points_zero(self, rng):
        X = rng.random((2, 3))
        assert np.allclose(fanova_importance(X, np.array([0.0, 1.0])), 0.0)
