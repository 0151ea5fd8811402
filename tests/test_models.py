"""Graph-network forward/backward math against finite differences, hand
arithmetic and the per-sample reference loop, baseline learners against
closed-form expectations, and the binary model container."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from srr.errors import DataError, NumericalError, ShapeError
from srr.graphs import EDGE_DTYPE, GraphSnapshot
from srr.features import FeaturePanel, compute_features
from srr.market_data import PricePanel
from srr.models.baselines import (_grow_tree, day_feature_matrix, day_feature_names,
                                  forest_fit, forest_predict, gini, logistic_fit,
                                  logistic_predict)
from srr.models.gcn import (adjacency_from_snapshot, gcn_backward, gcn_embed,
                            gcn_embed_backward, gcn_forward, gcn_normalize, init_gcn)
from srr.models.state import MODEL_FORMAT, ModelState, deserialize, parameter_count, serialize
from srr.models.temporal import (gru_backward, gru_forward, gru_step, gru_step_backward,
                                 init_gru, temporal_backward, temporal_forward)
from srr.synthetic import business_days, planted_regime_panel
from srr.tensor import bce_loss, focal_loss, seeded_rng, sigmoid
from srr import training
from srr.training import _KINDS


class TestNormalization:
    def test_three_node_path(self):
        adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        a_hat = gcn_normalize(adj)
        # degrees with self-loops: 2, 3, 2
        assert abs(a_hat[0, 1] - 1.0 / math.sqrt(6.0)) < 1e-15
        assert abs(a_hat[0, 0] - 0.5) < 1e-15
        assert abs(a_hat[1, 1] - 1.0 / 3.0) < 1e-15
        assert a_hat[0, 2] == 0.0
        assert np.array_equal(a_hat, a_hat.T)

    def test_triangle_is_uniform_third(self):
        adj = np.ones((3, 3)) - np.eye(3)
        assert np.allclose(gcn_normalize(adj), 1.0 / 3.0, atol=1e-15)

    def test_empty_graph_is_identity(self):
        assert np.array_equal(gcn_normalize(np.zeros((4, 4))), np.eye(4))

    def test_rejects_malformed_adjacency(self):
        with pytest.raises(ShapeError):
            gcn_normalize(np.zeros((2, 3)))
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0  # not symmetric
        with pytest.raises(ShapeError):
            gcn_normalize(bad)
        with pytest.raises(ShapeError):
            gcn_normalize(np.eye(3))  # self-loops in the input
        with pytest.raises(ShapeError):
            gcn_normalize(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_stack_equals_per_matrix_normalization(self, weighted):
        rng = np.random.default_rng(4)
        upper = np.triu(rng.random((6, 9, 9)) * (rng.random((6, 9, 9)) < 0.4), 1)
        if not weighted:
            upper = (upper > 0.0).astype(float)
        adj = upper + np.swapaxes(upper, -1, -2)
        adj[2] = 0.0  # an empty graph
        a_hat = gcn_normalize(adj)
        assert np.array_equal(a_hat, np.stack([oracles.gcn_normalize(a) for a in adj]))
        assert np.array_equal(gcn_normalize(adj.reshape(2, 3, 9, 9)), a_hat.reshape(2, 3, 9, 9))

    @pytest.mark.parametrize("fault", ["asymmetric", "diagonal", "negative"])
    def test_one_malformed_matrix_fails_the_stack(self, fault):
        adj = np.zeros((4, 3, 3))
        adj[:, 0, 1] = adj[:, 1, 0] = 1.0
        bad = adj[2]
        if fault == "asymmetric":
            bad[1, 2] = 1.0
        elif fault == "diagonal":
            bad[0, 0] = 1.0
        else:
            bad[0, 1] = bad[1, 0] = -1.0
        with pytest.raises(ShapeError):
            oracles.gcn_normalize(bad)
        with pytest.raises(ShapeError):
            gcn_normalize(adj)


def snapshot_for(n, edges, sector_edges=None, date="2021-03-01"):
    layers = {"correlation": np.array(edges, dtype=EDGE_DTYPE)}
    if sector_edges is not None:
        layers["sector"] = np.array(sector_edges, dtype=EDGE_DTYPE)
    return GraphSnapshot(date=date, node_ids=[f"T{i}" for i in range(n)], layers=layers)


class TestAdjacency:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_equals_edge_by_edge_loop(self, weighted):
        rng = np.random.default_rng(9)
        for n in (2, 20, 44):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            corr = [(i, j, float(rng.uniform(-1.0, 1.0)))
                    for (i, j), p in zip(pairs, rng.random(len(pairs))) if p < 0.3]
            corr += [(i, j, float(rng.uniform(-1.0, 1.0))) for i, j, _ in corr[::4]]  # repeats
            sector = [(i, j, 1.0) for (i, j), p in zip(pairs, rng.random(len(pairs))) if p < 0.2]
            for snap in (snapshot_for(n, corr, sector), snapshot_for(n, [], [])):
                for layers in (("correlation",), ("sector",), ("correlation", "sector")):
                    assert np.array_equal(
                        adjacency_from_snapshot(snap, layers=layers, weighted=weighted),
                        oracles.adjacency_from_snapshot(snap, layers=layers, weighted=weighted))

    def test_binary_union_and_weighted_mode(self):
        snap = snapshot_for(3, [(0, 1, 0.7), (1, 2, -0.6)], [(0, 1, 1.0)])
        adj = adjacency_from_snapshot(snap, layers=("correlation", "sector"))
        assert adj.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        weighted = adjacency_from_snapshot(snap, layers=("correlation", "sector"),
                                           weighted=True)
        assert weighted[0, 1] == 1.0  # max(|0.7|, sector 1.0)
        assert weighted[1, 2] == 0.6  # |rho| of a negative edge
        only_corr = adjacency_from_snapshot(snap, weighted=True)
        assert only_corr[0, 1] == 0.7

    @pytest.mark.parametrize("edge", [(-1, 1, 0.5), (2, 2, 0.9), (0, 3, 0.5), (1, 0, 0.5)])
    def test_refuses_an_edge_off_the_upper_triangle(self, edge):
        """The writer's and the reader's rule: a hand-built (-1, 1) edge no
        longer wraps into the edge (2, 1)."""
        snap = snapshot_for(3, [(0, 1, 0.3), edge])
        with pytest.raises(DataError, match=r"snapshot .*: layer 'correlation': edge \["):
            adjacency_from_snapshot(snap)

    def test_missing_layer_rejected(self):
        snap = snapshot_for(2, [])
        with pytest.raises(ShapeError, match="sector"):
            adjacency_from_snapshot(snap, layers=("sector",))


class TestInit:
    def test_shapes_bounds_and_determinism(self):
        p = init_gcn(seeded_rng(7, 1), n_features=7, hidden=32, mlp_hidden=16)
        assert p["w1"].shape == (7, 32) and p["w2"].shape == (32, 32)
        assert p["w3"].shape == (32, 16) and p["w4"].shape == (16, 1)
        for name in ("b1", "b2", "b3", "b4"):
            assert np.all(p[name] == 0.0)
        limit = math.sqrt(6.0 / (7 + 32))
        assert np.all(np.abs(p["w1"]) <= limit)
        again = init_gcn(seeded_rng(7, 1), n_features=7, hidden=32, mlp_hidden=16)
        assert all(np.array_equal(p[k], again[k]) for k in p)
        other = init_gcn(seeded_rng(7, 2), n_features=7, hidden=32, mlp_hidden=16)
        assert not np.array_equal(p["w1"], other["w1"])

    def test_gru_shapes(self):
        p = init_gru(seeded_rng(7, 2), input_dim=32, hidden=64)
        for gate in ("z", "r", "n"):
            assert p[f"w{gate}"].shape == (32, 64)
            assert p[f"u{gate}"].shape == (64, 64)
            assert np.all(p[f"b{gate}"] == 0.0)
        assert p["w_out"].shape == (64, 1) and p["b_out"].shape == (1,)


def random_graph(rng, n=10, f=7):
    adj = np.triu((rng.uniform(size=(n, n)) < 0.3).astype(np.float64), k=1)
    adj = adj + adj.T
    x = rng.normal(size=(n, f))
    return gcn_normalize(adj), x, adj


def gcn_one(a_hat, x, params):
    """``gcn_forward`` on one graph as a one-graph stack read by one sample."""
    return gcn_forward(a_hat[None], (a_hat @ x)[None], np.zeros((1, 1), dtype=np.intp), params)


class TestGcnForward:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        params = init_gcn(rng, n_features=7, hidden=8, mlp_hidden=4)
        a_hat, x, adj = random_graph(rng)
        prob, _ = gcn_one(a_hat, x, params)
        for _ in range(10):
            perm = rng.permutation(x.shape[0])
            a_p = gcn_normalize(adj[np.ix_(perm, perm)])
            prob_p, _ = gcn_one(a_p, x[perm], params)
            assert abs(prob[0] - prob_p[0]) < 1e-12

    def test_zero_weights_give_even_odds(self):
        params = {k: np.zeros_like(v)
                  for k, v in init_gcn(np.random.default_rng(0), 7, 8, 4).items()}
        a_hat, x, _ = random_graph(np.random.default_rng(1))
        prob, _ = gcn_one(a_hat, x, params)
        assert prob[0] == 0.5

    def test_isolated_nodes_see_only_themselves(self):
        # With an empty graph, A_hat = I: doubling unrelated rows of X must
        # not change a node's own convolution output.
        rng = np.random.default_rng(5)
        params = init_gcn(rng, n_features=3, hidden=4, mlp_hidden=3)
        x = rng.normal(size=(4, 3))
        z1, _ = gcn_embed(np.eye(4), x, params)
        x2 = x.copy()
        x2[2] *= 2.0
        z2, _ = gcn_embed(np.eye(4), x2, params)
        # pooled embedding changes only through node 2's own row
        h2_change = np.abs(z2 - z1)
        assert np.any(h2_change > 0)


def blank_grads(params):
    """Gradient arrays for a backward pass to fill, NaN so that any it leaves
    unwritten fails every comparison."""
    return {name: np.full_like(arr, np.nan) for name, arr in params.items()}


def fd_check(fn, params, names, eps=1e-6, tol=1e-5):
    """Central-difference check of d fn / d params[name] against analytic grads.

    fn(params) must return (loss, grads). Relative error is measured against
    max(1e-6, |analytic|, |numeric|) per entry.
    """
    _, grads = fn(params)
    for name in names:
        arr = params[name]
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lo_p, _ = fn(params)
            flat[idx] = orig - eps
            lo_m, _ = fn(params)
            flat[idx] = orig
            numeric = (lo_p - lo_m) / (2 * eps)
            analytic = grads[name].reshape(-1)[idx]
            denom = max(1e-6, abs(numeric), abs(analytic))
            assert abs(numeric - analytic) / denom < tol, (
                f"{name}[{idx}]: analytic {analytic} vs numeric {numeric}")


class TestGcnGradients:
    def test_all_eight_tensors_match_finite_differences(self):
        rng = np.random.default_rng(12)
        a_hat, x, _ = random_graph(rng, n=5, f=3)
        params = init_gcn(rng, n_features=3, hidden=4, mlp_hidden=3)
        for name in ("b1", "b2", "b3", "b4"):
            params[name] = rng.normal(size=params[name].shape) * 0.1
        y = 1.0

        def fn(p):
            probs, cache = gcn_one(a_hat, x, p)
            loss, _ = bce_loss(probs, np.array([y]))
            grads = blank_grads(p)
            gcn_backward(probs - y, cache, p, grads)
            return loss, grads

        fd_check(fn, params, ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4"))

    def test_encoder_backward_matches_projection_gradient(self):
        rng = np.random.default_rng(21)
        a_hat, x, _ = random_graph(rng, n=6, f=4)
        params = init_gcn(rng, n_features=4, hidden=5, mlp_hidden=3)
        v = rng.normal(size=5)

        def fn(p):
            z, cache = gcn_embed(a_hat, a_hat @ x, p)
            grads = blank_grads(p)
            gcn_embed_backward(v, cache, p, grads)
            return float(v @ z), grads

        fd_check(fn, params, ("w1", "b1", "w2", "b2"))


def gru_inputs(params, x):
    """The arguments of ``gru_step`` that ``gru_forward`` derives from the
    parameters and one step's input rows ``x`` (S, input)."""
    xw = (x @ np.concatenate([params[f"w{g}"] for g in "zrn"], axis=1)
          + np.concatenate([params[f"b{g}"] for g in "zrn"]))
    return xw, np.concatenate((params["uz"], params["ur"]), axis=1), params["un"]


def one_step(x, h, params):
    """``gru_step`` from the state ``h`` (S, hidden): (new state, gates)."""
    xw, u_zr, un = gru_inputs(params, x)
    s, hid = h.shape
    gates, rh, h_new = np.empty((s, 3 * hid)), np.empty((s, hid)), np.empty((s, hid))
    gru_step(xw, h, u_zr, un, gates, rh, h_new)
    return h_new, gates


class TestGruStep:
    def test_hand_traced_scalar_step(self):
        p = {"wz": np.array([[0.1]]), "uz": np.array([[0.2]]), "bz": np.array([0.05]),
             "wr": np.array([[0.3]]), "ur": np.array([[0.4]]), "br": np.array([-0.1]),
             "wn": np.array([[0.7]]), "un": np.array([[-0.5]]), "bn": np.array([0.2]),
             "w_out": np.array([[1.0]]), "b_out": np.array([0.0])}
        xs = np.array([0.5, -0.8])
        h_final, cache = gru_forward(xs.reshape(2, 1, 1), p)
        h = 0.0
        for t, x in enumerate(xs):  # from the zero state, one scalar step at a time
            z = 1.0 / (1.0 + math.exp(-(x * 0.1 + h * 0.2 + 0.05)))
            r = 1.0 / (1.0 + math.exp(-(x * 0.3 + h * 0.4 - 0.1)))
            n = math.tanh(x * 0.7 + (r * h) * (-0.5) + 0.2)
            h = (1.0 - z) * n + z * h
            assert np.allclose(cache["gates"][t, 0], [z, r, n], rtol=0, atol=1e-15)
            assert abs(cache["hs"][t + 1, 0, 0] - h) < 1e-15
        assert abs(h_final[0, 0] - h) < 1e-15

    def test_zero_update_gate_bias_blends_half(self):
        # all-zero params: z = r = sigmoid(0) = 0.5, n = tanh(0) = 0,
        # so h' = 0.5 * h exactly.
        p = {k: np.zeros_like(v) for k, v in init_gru(np.random.default_rng(0), 3, 4).items()}
        h = np.array([[0.2, -0.4, 0.8, 0.0]])
        h_new, _ = one_step(np.ones((1, 3)), h, p)
        assert np.allclose(h_new, 0.5 * h, atol=1e-16)

    def test_step_backward_matches_finite_differences(self):
        """All nine gate tensors through three stacked steps, two sequences."""
        rng = np.random.default_rng(8)
        p = init_gru(rng, input_dim=3, hidden=4)
        for gate in ("z", "r", "n"):
            p[f"b{gate}"] = rng.normal(size=4) * 0.1
        x, v = rng.normal(size=(3, 2, 3)), rng.normal(size=(2, 4))

        def fn(params):
            h, cache = gru_forward(x, params)
            grads = blank_grads(params)
            gru_backward(v, cache, params, grads)
            return float(np.sum(v * h)), grads

        fd_check(fn, p, ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn"))

    def test_step_backward_input_gradients(self):
        rng = np.random.default_rng(9)
        p = init_gru(rng, input_dim=3, hidden=4)
        x, v = rng.normal(size=(3, 2, 3)), rng.normal(size=(2, 4))
        _, cache = gru_forward(x, p)
        dx = gru_backward(v, cache, p, blank_grads(p))
        eps = 1e-6
        for idx in np.ndindex(x.shape):  # d loss / d every input of every step
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            num = np.sum(v * (gru_forward(xp, p)[0] - gru_forward(xm, p)[0])) / (2 * eps)
            assert abs(num - dx[idx]) / max(1e-6, abs(num), abs(dx[idx])) < 1e-6
        h = rng.normal(size=(2, 4))  # d loss / d the state before one step
        _, gates = one_step(x[0], h, p)
        dpre = np.empty((2, 12))
        _, u_zr, un = gru_inputs(p, x[0])
        dh = gru_step_backward(v, h, gates, u_zr, un, dpre)
        for idx in np.ndindex(h.shape):
            hp, hm = h.copy(), h.copy()
            hp[idx] += eps
            hm[idx] -= eps
            num = np.sum(v * (one_step(x[0], hp, p)[0] - one_step(x[0], hm, p)[0])) / (2 * eps)
            assert abs(num - dh[idx]) / max(1e-6, abs(num), abs(dh[idx])) < 1e-6


def temporal_setup(seed=4, k=3, n=5, f=3, hidden=4, gru_hidden=4):
    """One sequence of k random graphs: the (A_hat, A_hat X) stacks, its
    (1, k) rows, and the encoder and GRU tensors in one dict."""
    rng = np.random.default_rng(seed)
    seq = []
    for _ in range(k):
        adj = np.triu((rng.uniform(size=(n, n)) < 0.4).astype(np.float64), k=1)
        adj = adj + adj.T
        seq.append((gcn_normalize(adj), rng.normal(size=(n, f))))
    a_hat, x = map(np.stack, zip(*seq))
    seq = (a_hat, a_hat @ x)  # (A_hat k x n x n, A_hat X k x n x f)
    gcn_p = init_gcn(rng, n_features=f, hidden=hidden, mlp_hidden=2)
    params = {k_: v for k_, v in gcn_p.items() if k_ in ("w1", "b1", "w2", "b2")}
    params.update(init_gru(rng, input_dim=hidden, hidden=gru_hidden))
    return seq, np.arange(k)[None], params


class TestTemporal:
    def test_gradients_match_finite_differences_end_to_end(self):
        (a_hat, ax), rows, params = temporal_setup()
        y = 1.0

        def fn(p):
            probs, cache = temporal_forward(a_hat, ax, rows, p)
            loss, _ = bce_loss(probs, np.array([y]))
            grads = blank_grads(p)
            temporal_backward(probs - y, cache, p, grads)
            return loss, grads

        fd_check(fn, params, ("w1", "b1", "w2", "b2", "wz", "uz", "bz", "wr", "ur", "br",
                              "wn", "un", "bn", "w_out", "b_out"))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        (a_hat, ax), rows, params = temporal_setup(seed=14)
        prob, _ = temporal_forward(a_hat, ax, rows, params)
        n = ax.shape[1]
        for _ in range(5):
            perm = rng.permutation(n)  # A_hat X permutes its rows with the nodes
            prob_p, _ = temporal_forward(a_hat[:, perm][:, :, perm], ax[:, perm], rows, params)
            assert abs(prob[0] - prob_p[0]) < 1e-12

    def test_order_matters(self):
        (a_hat, ax), rows, params = temporal_setup(seed=6)
        prob_fwd, _ = temporal_forward(a_hat, ax, rows, params)
        prob_rev, _ = temporal_forward(a_hat, ax, rows[:, ::-1], params)
        assert abs(prob_fwd[0] - prob_rev[0]) > 1e-9

    def test_zero_network_reads_output_bias(self):
        (a_hat, ax), rows, params = temporal_setup(seed=2)
        params = {k: np.zeros_like(v) for k, v in params.items()}
        params["b_out"] = np.array([0.7])
        prob, _ = temporal_forward(a_hat, ax, rows, params)
        assert abs(prob[0] - 1.0 / (1.0 + math.exp(-0.7))) < 1e-15


def random_stack(rng, g, n, f=3):
    """g random normalized graphs on n nodes with features: (g x n x n, g x n x f)."""
    adj = np.triu((rng.uniform(size=(g, n, n)) < 0.4).astype(np.float64), k=1)
    adj = adj + np.swapaxes(adj, -1, -2)
    return np.stack([gcn_normalize(a) for a in adj]), rng.normal(size=(g, n, f))


def kind_params(rng, kind, f=3, hidden=4, gru_hidden=5):
    """Small parameters of one graph kind, with non-zero biases."""
    params = init_gcn(rng, n_features=f, hidden=hidden, mlp_hidden=3)
    if kind == "temporal":
        params = {k: params[k] for k in ("w1", "b1", "w2", "b2")}
        params.update(init_gru(rng, input_dim=hidden, hidden=gru_hidden))
    for name in params:
        if name.startswith("b"):
            params[name] = 0.1 * rng.normal(size=params[name].shape)
    return params


def merged(groups):
    return {name: g for group in groups for name, g in group.items()}


def kind_functions(kind):
    """The (forward, backward) pair that ``training`` looks up for a graph
    kind, the backward returning the gradients in a new dict."""
    spec = _KINDS[kind]
    backward = getattr(training, spec.backward)

    def new_grads(dlogits, cache, params):
        grads = blank_grads(params)
        backward(dlogits, cache, params, grads)
        return grads
    return getattr(training, spec.forward), new_grads


def oracle_batch(kind, seqs, params, y, loss_fn):
    """Per-sample reference loop: probabilities, dlogits and summed gradients."""
    if kind == "gcn":
        outs = [oracles.gcn_forward(*seq[0], params)[1:] for seq in seqs]
    else:
        outs = [oracles.temporal_forward(seq, params, params) for seq in seqs]

    def backward(d, cache):
        if kind == "gcn":
            return oracles.gcn_backward(d, cache, params)
        return merged(oracles.temporal_backward(d, cache, params, params))

    probs = np.array([prob for prob, _ in outs])
    _, dlogits = loss_fn(probs, y)
    grads = backward(float(dlogits[0]), outs[0][1])
    for d, (_, cache) in zip(dlogits[1:], outs[1:]):
        for name, g in backward(float(d), cache).items():
            grads[name] += g
    return probs, dlogits, grads


def assert_rel_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * max(np.max(np.abs(want)), 1e-300)


LOSSES = {"bce": bce_loss, "focal": lambda p, y: focal_loss(p, y, 2.0)}


class TestBatchedEqualsPerSample:
    @pytest.mark.parametrize("loss", sorted(LOSSES))
    @pytest.mark.parametrize("n", [2, 20])
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("b", [1, 3, 8])
    def test_probabilities_and_summed_gradients(self, b, k, n, loss):
        rng = np.random.default_rng(1000 * b + 10 * k + n)
        a_stack, x_stack = random_stack(rng, b + k - 1, n)
        rows = np.arange(b)[:, None] + np.arange(k)  # overlapping, as on the stride grid
        y = rng.integers(0, 2, size=b).astype(float)
        for kind, kind_rows in (("gcn", rows[:, -1:]), ("temporal", rows)):
            params = kind_params(rng, kind)
            seqs = [[(a_stack[i], x_stack[i]) for i in row] for row in kind_rows]
            want_p, dlogits, want_g = oracle_batch(kind, seqs, params, y, LOSSES[loss])

            # the training and scoring interface: a snapshot stack and index rows
            forward, backward = kind_functions(kind)
            probs, cache = forward(a_stack, a_stack @ x_stack, kind_rows, params)
            grads = backward(dlogits, cache, params)
            assert_rel_close(probs, want_p)
            assert set(grads) == set(want_g)
            for name in want_g:
                assert_rel_close(grads[name], want_g[name])

    @settings(max_examples=30)
    @given(b=st.integers(1, 6), k=st.integers(1, 4), n=st.integers(2, 9), g=st.integers(1, 8),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batched_gradients_are_the_sum_of_single_sample_gradients(self, b, k, n, g, seed):
        """Random B, k and N, with rows drawn from g graphs, so sequences share
        snapshots and may read one twice: the batched step's probabilities and
        summed gradients are those of B separate B = 1 steps."""
        rng = np.random.default_rng(seed)
        a_stack, x_stack = random_stack(rng, g, n)
        ax = a_stack @ x_stack
        rows = rng.integers(0, g, size=(b, k))
        dlogits = rng.normal(size=b)
        for kind, kind_rows in (("gcn", rows[:, -1:]), ("temporal", rows)):
            params = kind_params(rng, kind)
            forward, backward = kind_functions(kind)
            probs, cache = forward(a_stack, ax, kind_rows, params)
            grads = backward(dlogits, cache, params)
            want = {name: np.zeros_like(v) for name, v in params.items()}
            scale = {name: np.zeros_like(v) for name, v in params.items()}
            for s in range(b):
                prob, one_cache = forward(a_stack, ax, kind_rows[s:s + 1], params)
                assert_rel_close(probs[s:s + 1], prob)
                for name, grad in backward(dlogits[s:s + 1], one_cache, params).items():
                    want[name] += grad
                    scale[name] += np.abs(grad)
            for name in params:  # relative to the terms' magnitude, as they may cancel
                assert np.max(np.abs(grads[name] - want[name])) <= 1e-12 * max(
                    np.max(scale[name]), 1e-300), (kind, name)

    @pytest.mark.parametrize("kind", ["gcn", "temporal"])
    def test_batch_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(31)
        a_stack, x_stack = random_stack(rng, 6, 5)
        rows = np.array([[0, 1, 2], [2, 3, 4], [5, 1, 3]])
        if kind == "gcn":
            rows = rows[:, -1:]
        y = np.array([1.0, 0.0, 1.0])
        params = kind_params(rng, kind)
        forward, backward = kind_functions(kind)

        def fn(p):
            probs, cache = forward(a_stack, a_stack @ x_stack, rows, p)
            loss, dlogits = bce_loss(probs, y)
            return loss, backward(dlogits, cache, p)

        fd_check(fn, params, sorted(fn(params)[1]), tol=1e-4)

    @pytest.mark.parametrize("kind", ["gcn", "temporal"])
    def test_batch_permutation_invariance(self, kind):
        rng = np.random.default_rng(17)
        a_stack, x_stack = random_stack(rng, 7, 12)
        rows = np.array([[0, 1, 2, 3, 4], [2, 3, 4, 5, 6], [6, 5, 4, 3, 2]])
        if kind == "gcn":
            rows = rows[:, -1:]
        params = kind_params(rng, kind)
        forward, _ = kind_functions(kind)
        probs, _ = forward(a_stack, a_stack @ x_stack, rows, params)
        for _ in range(5):
            perms = [rng.permutation(12) for _ in range(len(a_stack))]
            a_p = np.stack([a[np.ix_(q, q)] for a, q in zip(a_stack, perms)])
            x_p = np.stack([x[q] for x, q in zip(x_stack, perms)])
            probs_p, _ = forward(a_p, a_p @ x_p, rows, params)
            assert np.max(np.abs(probs - probs_p)) < 1e-12


def day_panel():
    feats = np.array([[[1.0, 10.0], [2.0, 20.0]],
                      [[3.0, 30.0], [6.0, 60.0]]])  # 2 tickers x 2 dates x 2 features
    return FeaturePanel(tickers=["A", "B"], dates=business_days("2020-01-01", 2),
                        features=feats, names=["f", "g"],
                        macro=np.array([[7.0], [8.0]]), macro_names=["m"])


class TestDayFeatures:
    def test_interleaved_mean_std_plus_macro(self):
        panel = day_panel()
        assert day_feature_names(panel) == ["mean_f", "std_f", "mean_g", "std_g", "m"]
        mat = day_feature_matrix(panel, [0, 1])
        # date 0: f values {1, 3}, g values {10, 30}; ddof=1 std = sqrt(2)*|d|/sqrt(2)
        assert np.allclose(mat[0], [2.0, math.sqrt(2.0), 20.0, 10.0 * math.sqrt(2.0), 7.0])
        assert np.allclose(mat[1], [4.0, 2.0 * math.sqrt(2.0), 40.0, 20.0 * math.sqrt(2.0), 8.0])

    @pytest.mark.parametrize("n_tickers,n_days", [(20, 600), (44, 1500), (2, 300)])
    def test_one_reduction_equals_the_per_day_loop(self, n_tickers, n_days):
        dates, tickers, raw = planted_regime_panel(n_tickers=n_tickers, n_days=n_days, seed=3)
        prices = PricePanel(tickers=tickers, dates=dates, prices=raw)
        panel = compute_features(prices)
        panel.macro = np.random.default_rng(0).normal(size=(len(panel.dates), 2))
        idx = list(range(0, len(panel.dates), 3))
        rows = []
        for t in idx:  # the per-day construction the matrix replaces
            x = panel.features[:, t, :]
            row = np.empty(2 * x.shape[1])
            row[0::2] = x.mean(axis=0)
            row[1::2] = x.std(axis=0, ddof=1)
            rows.append(np.concatenate([row, panel.macro[t]]))
        assert np.array_equal(day_feature_matrix(panel, idx), np.stack(rows))

    def test_single_ticker_rejected(self):
        panel = FeaturePanel(tickers=["A"], dates=["2020-01-01"],
                             features=np.ones((1, 1, 2)), names=["f", "g"])
        with pytest.raises(DataError, match=">= 2 tickers"):
            day_feature_matrix(panel, [0])


class TestLogistic:
    def test_zero_features_learn_the_base_rate(self):
        x = np.zeros((8, 3))
        y = np.array([1, 1, 1, 0, 1, 1, 0, 1], dtype=float)  # 6/8 = 0.75
        params = logistic_fit(x, y, lr=0.05, max_epochs=5000, tol=1e-10)
        assert np.all(params["w"] == 0.0)  # zero inputs produce zero weight gradients
        assert params["b"].shape == (1,)
        assert abs(params["b"][0] - math.log(3.0)) < 1e-4  # logit of 0.75

    def test_separable_direction(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 1))
        y = (x[:, 0] > 0).astype(float)
        params = logistic_fit(x, y, max_epochs=500)
        assert params["w"][0] > 1.0
        probs = logistic_predict(params, x)
        assert np.all(probs[y == 1].min() > probs[y == 0].max())

    @pytest.mark.parametrize("max_epochs,tol", [(50, 1e-12), (5000, 1e-3)])  # stop at the cap; at tol
    def test_fit_is_bit_equal_to_the_dict_adam_loop(self, max_epochs, tol):
        """The flat in-place Adam leaves the fitted weights, hence the saved
        ``model_logistic.srrm``, byte for byte as they were."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(200, 9))
        y = (x[:, 0] - x[:, 3] + rng.normal(size=200) > 0).astype(float)
        w, b = oracles.logistic_fit(x, y, max_epochs=max_epochs, tol=tol)
        blobs = [serialize(ModelState(kind="logistic", params=params, hyper={})) for params in (
            logistic_fit(x, y, max_epochs=max_epochs, tol=tol), {"w": w, "b": np.array([b])})]
        assert blobs[0] == blobs[1]

    def test_predict_checks_width(self):
        with pytest.raises(DataError):
            logistic_predict({"w": np.zeros(3), "b": np.zeros(1)}, np.zeros((2, 4)))

    def test_fit_checks_shapes(self):
        with pytest.raises(DataError):
            logistic_fit(np.zeros((4, 2)), np.zeros(5))


class TestForest:
    def test_gini_values(self):
        assert gini(np.array([0, 0, 1, 1])) == 0.5
        assert gini(np.array([1, 1, 1])) == 0.0
        assert gini(np.array([])) == 0.0
        assert abs(gini(np.array([0, 0, 0, 1])) - 0.375) < 1e-15

    def test_perfectly_separable_binary_feature(self):
        rng = np.random.default_rng(0)
        x0 = rng.integers(0, 2, size=60).astype(float)
        x = np.column_stack([x0, rng.normal(size=60)])
        y = x0.copy()
        params = forest_fit(x, y, n_trees=15, max_depth=3, min_leaf=1, seed=5)
        preds = forest_predict(params, np.array([[0.0, 0.3], [1.0, -0.2]]))
        assert preds[0] < 0.05 and preds[1] > 0.95
        # splits on the binary feature sit exactly between the classes
        tree = params["tree_0000"]
        internal = tree[tree[:, 0] == 0.0]
        on_x0 = internal[internal[:, 1] == 0.0]
        assert on_x0.size > 0 and np.all(on_x0[:, 2] == 0.5)
        # per-node feature subsets sample sqrt(2) -> 1 feature, so the noise
        # column is tried at many roots; the signal still dominates clearly
        imp = params["feature_importance"]
        assert imp[0] > 5 * max(imp[1], 1e-12)

    def test_training_fit_is_strong_on_clean_data(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(80, 3))
        y = (x[:, 1] > 0.2).astype(float)
        params = forest_fit(x, y, n_trees=25, max_depth=6, min_leaf=1, seed=1)
        preds = forest_predict(params, x)
        assert np.mean((preds > 0.5) == (y == 1)) > 0.97

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 4))
        y = (x[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(float)
        a = forest_fit(x, y, n_trees=8, seed=3)
        b = forest_fit(x, y, n_trees=8, seed=3)
        assert sorted(a) == sorted(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        c = forest_fit(x, y, n_trees=8, seed=4)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_validation(self):
        with pytest.raises(DataError):
            forest_fit(np.zeros((4, 2)), np.zeros(3))
        with pytest.raises(DataError):
            forest_fit(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(DataError):
            forest_fit(np.zeros((4, 2)), np.zeros(4), n_trees=0)
        with pytest.raises(DataError, match="no trees"):
            forest_predict({"feature_importance": np.zeros(2)}, np.zeros((1, 2)))


class TestForestMatchesLoops:
    """The array split search and the level-by-level descent equal the
    threshold-by-threshold and row-by-row loops they replaced (``oracles``)
    exactly. Duplicated and integer-valued columns tie the weighted Gini across
    features and thresholds, so the tie-breaking order is tested too."""

    @staticmethod
    def _data(rng, case):
        n, f = int(rng.integers(2, 70)), int(rng.integers(2, 6))
        if case % 2:
            x = rng.integers(0, 4, size=(n, f)).astype(float)
        else:
            x = rng.normal(size=(n, f))
        y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int8)
        return np.hstack([x, x[:, ::-1]]), y

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    @pytest.mark.parametrize("max_depth", [0, 1, 6])
    def test_trees_and_importance(self, min_leaf, max_depth):
        rng = np.random.default_rng(10 * min_leaf + max_depth)
        for case in range(12):
            x, y = self._data(rng, case)
            got_imp, want_imp = np.zeros(x.shape[1]), np.zeros(x.shape[1])
            got = _grow_tree(x, y, seeded_rng(case, 1), max_depth, min_leaf, y.size, got_imp)
            want = oracles._grow_tree(x, y, seeded_rng(case, 1), max_depth, min_leaf,
                                      y.size, want_imp)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert got_imp.tobytes() == want_imp.tobytes()

    def test_predictions_on_no_rows_and_many(self):
        rng = np.random.default_rng(5)
        for case in range(6):
            x, y = self._data(rng, case)
            params = forest_fit(x, y, n_trees=7, max_depth=5, min_leaf=1, seed=case)
            rows = np.vstack([x, rng.normal(size=(200, x.shape[1])),
                              rng.integers(0, 4, size=(50, x.shape[1]))])
            for xs in (rows, rows[:0]):
                got = forest_predict(params, xs)
                assert got.tobytes() == oracles.forest_predict(params, xs).tobytes()

    def test_a_tree_that_loops_raises(self):
        leaf = [1.0, -1.0, 0.0, -1.0, -1.0, 0.4, 0.6]
        params = {"tree_0000": np.array([[0.0, 0.0, 0.5, 1.0, 2.0, 0.0, 0.0], leaf,
                                         [0.0, 1.0, 0.0, 2.0, 2.0, 0.0, 0.0]])}
        x = np.array([[0.0, 0.0], [1.0, 0.0]])  # the second row reaches node 2
        for predict in (forest_predict, oracles.forest_predict):
            assert predict(params, x[:1]).tolist() == [0.6]
            with pytest.raises(NumericalError, match="malformed tree"):
                predict(params, x)


class TestContainer:
    def _gcn_state(self):
        params = init_gcn(seeded_rng(7, 1), n_features=7, hidden=32, mlp_hidden=16)
        return ModelState(kind="gcn", params=params,
                          hyper={"hidden": 32, "mlp_hidden": 16, "config_hash": "abc123"})

    def test_round_trip_bit_exact(self):
        state = self._gcn_state()
        back = deserialize(serialize(state))
        assert back.kind == state.kind
        assert back.hyper == state.hyper
        assert sorted(back.params) == sorted(state.params)
        for k in state.params:
            assert back.params[k].dtype == np.float64
            assert back.params[k].shape == state.params[k].shape
            assert np.array_equal(back.params[k], state.params[k])

    def test_serialization_is_deterministic(self):
        state = self._gcn_state()
        blob = serialize(state)
        assert blob == serialize(state)
        assert serialize(deserialize(blob)) == blob
        assert blob.startswith(b"srr-model-v2\n")
        start = len(b"srr-model-v2\n") + 8
        header = json.loads(blob[start:start + struct.unpack_from("<Q", blob, start - 8)[0]])
        assert sorted(header) == ["hyper", "kind", "tensors"]

    def test_header_key_it_does_not_read_is_ignored(self):
        """A file whose header also names its format still loads."""
        state = self._gcn_state()
        blob = serialize(state)
        start = len(b"srr-model-v2\n") + 8
        end = start + struct.unpack_from("<Q", blob, start - 8)[0]
        head = json.dumps({**json.loads(blob[start:end]), "format": "srr-model-v2"}).encode()
        back = deserialize(blob[:start - 8] + struct.pack("<Q", len(head)) + head + blob[end:])
        assert back.hyper == state.hyper and serialize(back) == blob

    def test_v1_container_rejected(self):
        blob = b"srr-model-v1\n" + serialize(self._gcn_state())[len(b"srr-model-v2\n"):]
        with pytest.raises(DataError, match="not an srr-model-v2 container"):
            deserialize(blob)

    def test_forest_state_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 3))
        y = (x[:, 0] > 0).astype(float)
        params = forest_fit(x, y, n_trees=4, seed=2)
        state = ModelState(kind="forest", params=params, hyper={"n_trees": 4})
        back = deserialize(serialize(state))
        assert all(np.array_equal(back.params[k], params[k]) for k in params)
        assert parameter_count(back) == parameter_count(state)

    def test_corrupted_blobs_rejected(self):
        blob = serialize(self._gcn_state())
        with pytest.raises(DataError, match="magic"):
            deserialize(b"zzz" + blob[3:])
        with pytest.raises(DataError, match="truncated"):
            deserialize(blob[:15])  # magic intact, header length cut short
        with pytest.raises(DataError, match="truncated"):
            deserialize(blob[:40])  # header cut short
        with pytest.raises(DataError, match="truncated"):
            deserialize(blob[:-5])  # last tensor cut short
        with pytest.raises(DataError, match="trailing"):
            deserialize(blob + b"\x00")
        head = len(b"srr-model-v2\n") + 8  # where the header JSON starts
        for bad in (b"x", b"\xff"):  # not JSON; not UTF-8
            with pytest.raises(DataError, match="corrupted model container \\(header"):
                deserialize(blob[:head] + bad + blob[head + 1:])

    @pytest.mark.parametrize("change", [
        lambda h: list(h),
        lambda h: {k: v for k, v in h.items() if k != "tensors"},
        lambda h: {**h, "tensors": {}},
        lambda h: {**h, "kind": 3},
        lambda h: {**h, "hyper": []},
        lambda h: {**h, "tensors": ["b1"] + h["tensors"][1:]},
        lambda h: {**h, "tensors": [{"rows": 1, "cols": 32}] + h["tensors"][1:]},
        lambda h: {**h, "tensors": [{**h["tensors"][0], "rows": "1"}] + h["tensors"][1:]},
        lambda h: {**h, "tensors": [{**h["tensors"][0], "rows": -1}] + h["tensors"][1:]},
        lambda h: {**h, "tensors": [{**h["tensors"][0], "cols": 32.0}] + h["tensors"][1:]},
    ], ids=["list", "no-tensors", "tensors-object", "kind-number",
            "hyper-list", "entry-string", "entry-without-name",
            "rows-string", "rows-negative", "cols-float"])
    def test_header_of_the_wrong_shape_rejected(self, change):
        blob = serialize(self._gcn_state())
        start = len(b"srr-model-v2\n") + 8
        end = start + struct.unpack_from("<Q", blob, start - 8)[0]
        head = json.dumps(change(json.loads(blob[start:end]))).encode()
        blob = blob[:start - 8] + struct.pack("<Q", len(head)) + head + blob[end:]
        with pytest.raises(DataError, match="^corrupted model container \\(header: "):
            deserialize(blob)

    def test_parameter_counts(self):
        gcn_state = self._gcn_state()
        # 7*32+32 + 32*32+32 + 32*16+16 + 16*1+1
        assert parameter_count(gcn_state) == 1857
        gcn_p = {k: v for k, v in gcn_state.params.items()
                 if k in ("w1", "b1", "w2", "b2")}
        gru_p = init_gru(seeded_rng(7, 2), input_dim=32, hidden=64)
        temporal_state = ModelState(kind="temporal", params={**gcn_p, **gru_p},
                                    hyper={})
        # encoder 1312 + gates 3*(32*64 + 64*64 + 64) + head 65
        assert parameter_count(temporal_state) == 20001
        logistic_state = ModelState(kind="logistic",
                                    params={"w": np.zeros(14), "b": np.zeros(1)},
                                    hyper={})
        assert parameter_count(logistic_state) == 15
        forest_state = ModelState(kind="forest", hyper={}, params={
            "feature_importance": np.ones(14), "tree_0000": np.zeros((5, 7)),
            "tree_0001": np.zeros((3, 7))})
        assert parameter_count(forest_state) == 56  # the trees' 8 nodes x 7, not the importances

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="kind"):
            ModelState(kind="mystery", params={}, hyper={})
