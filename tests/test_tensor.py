"""Matrix kernel: ops vs naive oracles, losses vs finite differences, Adam vs
a hand-rolled scalar reference, and seeded-RNG reproducibility."""

import numpy as np
import pytest

import oracles
from srr import tensor as tz
from srr.errors import NumericalError, ShapeError


def naive_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestOps:
    def test_matmul_matches_triple_loop(self):
        for seed in range(5):
            rng = tz.seeded_rng(seed)
            a = rng.standard_normal((4, 6))
            b = rng.standard_normal((6, 3))
            assert np.allclose(tz.matmul(a, b), naive_matmul(a, b), atol=1e-12)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tz.matmul(np.ones((2, 3)), np.ones((4, 2)))

    def test_matmul_traps_nonfinite(self):
        a = np.array([[1e308, 1e308]])
        b = np.array([[1e308], [1e308]])
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            tz.matmul(a, b)

    def test_add_broadcasts_rows(self):
        a = np.ones((3, 2))
        b = np.array([[10.0, 20.0]])
        assert np.array_equal(tz.add(a, b), a + b)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tz.add(np.ones((2, 3)), np.ones((2, 4)))

    def test_as_matrix_rejects_3d(self):
        with pytest.raises(ShapeError):
            tz.as_matrix(np.zeros((2, 2, 2)))


class TestActivations:
    def test_relu_and_kink(self):
        x = np.array([-2.0, -0.0, 0.0, 3.0])
        h = x.copy()
        np.maximum(h, 0.0, out=h)  # the encoder's in-place ReLU
        assert np.array_equal(h, [0.0, 0.0, 0.0, 3.0])
        # the kink at exactly zero takes the zero branch, so the mask h > 0 that
        # the encoder keeps is the derivative
        assert np.array_equal(oracles.relu_grad(x), [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(h > 0.0, oracles.relu_grad(x) > 0.0)

    def test_sigmoid_stable_extremes(self):
        big = tz.sigmoid(np.array([800.0, -800.0, -745.0]))
        assert np.all(np.isfinite(big))  # never overflows, whatever the input
        assert big[0] == 1.0  # saturates cleanly
        assert big[1] >= 0.0  # past the subnormal range it bottoms out at 0
        assert 0.0 < big[2] < 1e-300  # still a subnormal at the float64 edge

    def test_sigmoid_equals_two_branch_form(self):
        rng = np.random.default_rng(0)
        edges = np.array([0.0, -0.0, 1e-320, -1e-320, 745.0, -745.0, 746.0, -746.0,
                          1e308, -1e308, np.inf, -np.inf, np.nan])
        inputs = [rng.normal(scale=s, size=(8, 64)) for s in (1e-3, 1e-1, 1.0, 10.0, 100.0, 800.0)]
        for x in inputs + [edges]:
            assert np.array_equal(tz.sigmoid(x), oracles.sigmoid(x), equal_nan=True)
        assert tz.sigmoid(np.array([-746.0]))[0] == 0.0  # exp(-746) underflows

    def test_sigmoid_midpoint_and_symmetry(self):
        assert tz.sigmoid(np.array([0.0]))[0] == 0.5
        x = np.linspace(-5, 5, 11)
        assert np.allclose(tz.sigmoid(x) + tz.sigmoid(-x), 1.0, atol=1e-15)

    @pytest.mark.parametrize("fn,grad", [(tz.sigmoid, oracles.sigmoid_grad),
                                         (np.tanh, oracles.tanh_grad)])
    def test_activation_grads_match_fd(self, fn, grad):
        for x0 in [-2.0, -0.3, 0.7, 1.9]:
            fd = central_diff(lambda v: fn(np.array([v]))[0], x0)
            assert abs(grad(np.array([x0]))[0] - fd) < 1e-8


class TestLosses:
    def test_bce_known_value(self):
        loss, dlogits = tz.bce_loss([0.9], [1.0])
        assert abs(loss - (-np.log(0.9))) < 1e-12
        assert abs(dlogits[0] - (0.9 - 1.0)) < 1e-12  # (p - y) / batch, batch 1

    def test_bce_gradient_is_mean_reduced(self):
        probs = np.array([0.2, 0.7, 0.5, 0.9])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        _, dlogits = tz.bce_loss(probs, y)
        assert np.allclose(dlogits, (probs - y) / 4.0, atol=1e-15)

    def test_bce_gradient_matches_fd_through_sigmoid(self):
        rng = tz.seeded_rng(3)
        logits = rng.uniform(-2, 2, size=6)
        y = (rng.uniform(size=6) > 0.5).astype(float)

        def loss_at(vec):
            return tz.bce_loss(tz.sigmoid(vec), y)[0]

        _, dlogits = tz.bce_loss(tz.sigmoid(logits), y)
        for i in range(6):
            def f(v, i=i):
                pert = logits.copy()
                pert[i] = v
                return loss_at(pert)
            fd = central_diff(f, logits[i], h=1e-5)
            assert abs(dlogits[i] - fd) < 1e-7

    def test_bce_clamps_extreme_probs(self):
        loss, dlogits = tz.bce_loss([0.0, 1.0], [1.0, 0.0])
        assert np.isfinite(loss) and np.all(np.isfinite(dlogits))
        assert abs(loss - (-np.log(tz.PROB_EPS))) < 1e-6

    def test_focal_gamma_zero_equals_bce(self):
        """At gamma 0 the general gradient is bce's, bit for bit, inside the clamp,
        and (clamped p - y) / n at and beyond it."""
        rng = tz.seeded_rng(5)
        eps = tz.PROB_EPS
        edges = [0.0, 1.0, eps, 1.0 - eps, eps / 2, 1.0 - eps / 2, np.nextafter(eps, 1.0)]
        probs = np.concatenate([rng.uniform(0.01, 0.99, size=20), edges, edges])
        y = np.concatenate([(rng.uniform(size=20) > 0.6).astype(float),
                            np.zeros(len(edges)), np.ones(len(edges))])
        l_b, g_b = tz.bce_loss(probs, y)
        l_f, g_f = tz.focal_loss(probs, y, gamma=0.0)
        assert abs(l_b - l_f) < 1e-12
        assert g_f.tobytes() == ((np.clip(probs, eps, 1.0 - eps) - y) / y.size).tobytes()
        inside = (probs >= eps) & (probs <= 1.0 - eps)
        assert g_f[inside].tobytes() == g_b[inside].tobytes()

    def test_focal_known_value(self):
        # gamma 2, p 0.9, y 1: (1-p)^2 * (-log p) = 0.01 * 0.10536...
        loss, _ = tz.focal_loss([0.9], [1.0], gamma=2.0)
        assert abs(loss - 0.01 * (-np.log(0.9))) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_focal_gradient_matches_fd(self, gamma):
        rng = tz.seeded_rng(11)
        logits = rng.uniform(-2, 2, size=8)
        y = (rng.uniform(size=8) > 0.5).astype(float)

        def loss_at(vec):
            return tz.focal_loss(tz.sigmoid(vec), y, gamma=gamma)[0]

        _, dlogits = tz.focal_loss(tz.sigmoid(logits), y, gamma=gamma)
        for i in range(8):
            def f(v, i=i):
                pert = logits.copy()
                pert[i] = v
                return loss_at(pert)
            fd = central_diff(f, logits[i], h=1e-5)
            assert abs(dlogits[i] - fd) < 1e-7

    def test_focal_finite_at_clamped_endpoints(self):
        for gamma in (0.0, 1.0, 2.0, 5.0):
            loss, dlogits = tz.focal_loss([0.0, 1.0], [1.0, 0.0], gamma=gamma)
            assert np.isfinite(loss) and np.all(np.isfinite(dlogits))

    def test_loss_rejects_soft_targets(self):
        with pytest.raises(NumericalError):
            tz.bce_loss([0.5], [0.5])

    def test_loss_rejects_empty_batch(self):
        with pytest.raises(ShapeError):
            tz.bce_loss([], [])

    def test_focal_rejects_negative_gamma(self):
        with pytest.raises(NumericalError):
            tz.focal_loss([0.5], [1.0], gamma=-1.0)


def reference_adam(theta, grads_seq, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar Adam written independently of the library implementation."""
    m = v = 0.0
    out = [theta]
    for t, g in enumerate(grads_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (v_hat ** 0.5 + eps)
        out.append(theta)
    return out


def adam_run(params, grads_seq, **kw):
    """Flatten ``params``, take one in-place step per gradient dict; returns
    (vector, named views, state)."""
    theta, views = tz.flatten(params)
    state = tz.AdamState({k: v.size for k, v in views.items()}, **kw)
    for grads in grads_seq:
        tz.adam_step(theta, tz.flatten({k: grads[k] for k in views})[0], state)
    return theta, views, state


class TestAdam:
    def test_first_step_magnitude(self):
        # Bias correction makes step 1 equal lr * g / (|g| + eps) ~= lr.
        _, views, _ = adam_run({"w": np.array([[1.0]])}, [{"w": np.array([[3.0]])}], lr=0.01)
        expected = 1.0 - 0.01 * 3.0 / (3.0 + 1e-8)
        assert abs(views["w"][0, 0] - expected) < 1e-15

    def test_multi_step_matches_scalar_reference(self):
        grads = [0.5, -1.2, 0.3, 2.0, -0.1]
        ref = reference_adam(1.0, grads, lr=0.02)
        theta = np.array([1.0])
        state = tz.AdamState({"w": 1}, lr=0.02)
        for k, g in enumerate(grads, start=1):
            tz.adam_step(theta, np.array([g]), state)
            assert abs(theta[0] - ref[k]) < 1e-14

    def test_inputs_not_mutated(self):
        """The gradient is not mutated; theta, and every view of it, is updated in place."""
        theta, views = tz.flatten({"w": np.array([[1.0, 2.0]]), "b": np.array([3.0])})
        g = np.array([0.5, 0.5, -0.5])
        buffer = theta.ctypes.data
        tz.adam_step(theta, g, tz.AdamState({"w": 2, "b": 1}))
        assert np.array_equal(g, [0.5, 0.5, -0.5])
        assert theta.ctypes.data == buffer and np.all(theta != [1.0, 2.0, 3.0])
        assert np.array_equal(views["w"], [theta[:2]]) and np.array_equal(views["b"], theta[2:])

    def test_flatten_views_share_the_vector(self):
        params = {"w": np.arange(6.0).reshape(2, 3), "s": np.array(7.0), "e": np.zeros(0)}
        theta, views = tz.flatten(params)
        assert theta.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
        assert list(views) == list(params)
        assert all(views[k].shape == params[k].shape for k in params)
        assert all(np.shares_memory(views[k], theta) for k in ("w", "s"))
        theta += 1.0
        assert views["w"][1, 2] == 6.0 and views["s"] == 8.0
        assert params["w"][1, 2] == 5.0  # the input dict is copied, not aliased

    def test_key_mismatch_errors(self):
        """The state's named sizes must add up to the vector."""
        with pytest.raises(ShapeError):
            tz.adam_step(np.zeros(3), np.zeros(3), tz.AdamState({"a": 2}))

    def test_shape_mismatch_errors(self):
        with pytest.raises(ShapeError):
            tz.adam_step(np.zeros(2), np.zeros(3), tz.AdamState({"a": 2}))

    def test_matches_the_per_tensor_loop(self):
        """The flat in-place update equals the tensor-by-tensor loop (``oracles``)
        bit for bit, for grads keyed in another order."""
        rng = np.random.default_rng(4)
        shapes = [(3, 4), (4,), (1,), (), (2, 3, 5), (7, 1), (1, 9), (16,), (5, 5),
                  (2, 2, 2, 2), (0,), (6, 3), (3,), (1, 1), (11, 2), (8,)]
        params = {f"p{i:02d}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        grads_seq = [{k: rng.normal(size=v.shape) * 10.0 ** rng.uniform(-6, 2, size=v.shape)
                      for k, v in reversed(params.items())} for _ in range(20)]
        _, got, _ = adam_run(params, grads_seq, lr=0.01)
        want, want_state = dict(params), oracles.AdamState(lr=0.01)
        for grads in grads_seq:
            want = oracles.adam_step(want, grads, want_state)
        assert list(got) == list(want)
        for k in want:
            assert got[k].shape == want[k].shape
            assert got[k].tobytes() == want[k].tobytes()

    def test_gnn_parameter_set_over_50_steps(self):
        """The 19 tensors of the GCN and GRU, 50 steps: bit-equal to the oracle
        after every step, moments included."""
        from srr.models.gcn import init_gcn
        from srr.models.temporal import init_gru
        rng = np.random.default_rng(19)
        params = {**init_gcn(rng, 9, 32, 16), **init_gru(rng, 32, 64)}
        assert len(params) == 19
        def flat(named):
            return np.concatenate(list(named.values()), axis=None)

        theta, views = tz.flatten(params)
        state = tz.AdamState({k: v.size for k, v in views.items()}, lr=3e-3)
        want, want_state = dict(params), oracles.AdamState(lr=3e-3)
        for _ in range(50):
            grads = {k: rng.normal(size=v.shape) * 10.0 ** rng.uniform(-4, 1)
                     for k, v in params.items()}
            tz.adam_step(theta, flat(grads), state)
            want = oracles.adam_step(want, grads, want_state)
            assert theta.tobytes() == flat(want).tobytes()
        assert state.m.tobytes() == flat(want_state.m).tobytes()
        assert state.v.tobytes() == flat(want_state.v).tobytes()

    def test_non_finite_result_names_the_first_tensor(self):
        params = {"a": np.ones(3), "e": np.zeros(0), "b": np.ones((2, 2)), "c": np.ones(1)}
        grads = {"a": np.ones(3), "e": np.zeros(0), "b": np.array([[1.0, np.inf], [1.0, 1.0]]),
                 "c": np.array([np.nan])}
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=r"adam_step\[b\]"):
            adam_run(params, [grads])
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=r"adam_step\[b\]"):
            oracles.adam_step(params, grads, oracles.AdamState())

    def test_non_finite_result_leaves_theta_unchanged(self):
        theta, _ = tz.flatten({"a": np.array([1.0, -2.0]), "b": np.array([0.5])})
        state = tz.AdamState({"a": 2, "b": 1})
        tz.adam_step(theta, np.array([0.1, 0.2, 0.3]), state)
        before = theta.copy()
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=r"adam_step\[b\]"):
            tz.adam_step(theta, np.array([0.1, 0.2, np.nan]), state)
        assert theta.tobytes() == before.tobytes()


class TestLinear:
    """The per-graph GEMMs of ``x @ w + b`` and ``linear_grads`` against the
    reshape-to-one-GEMM path they replaced."""

    SHAPES = [(5,), (7, 5), (4, 7, 5), (3, 4, 7, 5)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_is_bit_equal(self, shape):
        rng = np.random.default_rng(len(shape))
        x, w, b = rng.normal(size=shape), rng.normal(size=(5, 6)), rng.normal(size=6)
        for bias in (None, b):
            got, want = x @ w if bias is None else x @ w + bias, oracles.linear(x, w, bias)
            assert got.shape == want.shape == shape[:-1] + (6,)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_grads_match_within_1e12(self, shape):
        rng = np.random.default_rng(10 + len(shape))
        x, dy = rng.normal(size=shape), rng.normal(size=shape[:-1] + (6,))
        for got, want in zip(tz.linear_grads(x, dy), oracles.linear_grads(x, dy)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_gnn_sized_stacks(self):
        """A mini-batch's encoder shapes: 40 graphs of 44 nodes, hidden 32."""
        rng = np.random.default_rng(44)
        x, w, dy = rng.normal(size=(40, 44, 32)), rng.normal(size=(32, 32)), rng.normal(
            size=(40, 44, 32))
        assert (x @ w).tobytes() == oracles.linear(x, w).tobytes()
        for got, want in zip(tz.linear_grads(x, dy), oracles.linear_grads(x, dy)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestRandomness:
    def test_seeded_rng_reproducible(self):
        a = tz.seeded_rng(7, 1).standard_normal(5)
        b = tz.seeded_rng(7, 1).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = tz.seeded_rng(7, 1).standard_normal(5)
        b = tz.seeded_rng(7, 2).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_glorot_bounds_and_shape(self):
        rng = tz.seeded_rng(0)
        w = tz.glorot_uniform(rng, 30, 30)
        assert w.shape == (30, 30)
        bound = np.sqrt(6.0 / 60.0)
        assert np.all(np.abs(w) <= bound)
