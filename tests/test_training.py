"""Chronological split semantics, deterministic training, divergence and
single-class guards, and the no-peeking property of every fit."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from srr import cli, training
from srr import tensor as tz
from srr.config import MODEL_KINDS, Config, ModelConfig, config_hash
from srr.errors import DataError, NumericalError, SrrError
from srr.features import apply_standardization, attach_labels, compute_features, standardize
from srr.graphs import build_snapshots
from srr.market_data import PricePanel, log_returns
from srr.models.gcn import adjacency_from_snapshot, gcn_normalize
from srr.models.state import ModelState, deserialize, serialize
from srr.synthetic import business_days, planted_regime_panel
from srr.training import DataBundle, chronological_split, predict_scores, train
from srr.training import _GraphSamples, _graph_samples, _header, _train_minibatch  # white-box


class TestSplit:
    DATES = business_days("2022-01-03", 10)

    def test_no_embargo(self):
        plan = chronological_split(self.DATES, ratio=0.8, horizon=0)
        assert plan.train_dates == self.DATES[:8]
        assert plan.test_dates == self.DATES[8:]

    def test_embargo_trims_train_tail_only(self):
        plan = chronological_split(self.DATES, ratio=0.8, horizon=2)
        assert plan.train_dates == self.DATES[:6]
        assert plan.test_dates == self.DATES[8:]
        assert max(plan.train_dates) < min(plan.test_dates)
        assert plan.side(self.DATES[5]) == "train"
        assert plan.side(self.DATES[6]) is None  # embargo gap
        assert plan.side(self.DATES[7]) is None
        assert plan.side(self.DATES[8]) == "test"

    def test_floor_of_fractional_boundary(self):
        plan = chronological_split(self.DATES[:7], ratio=0.5, horizon=0)
        assert len(plan.train_dates) == 3 and len(plan.test_dates) == 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(DataError):
            chronological_split(self.DATES, ratio=1.0)
        with pytest.raises(DataError):
            chronological_split(self.DATES, ratio=0.8, horizon=-1)
        with pytest.raises(DataError, match="cannot split"):
            chronological_split(self.DATES[:5], ratio=0.5, horizon=10)


HORIZON = 20

SMALL = Config(model=ModelConfig(gcn_hidden=4, mlp_hidden=3, gru_hidden=4, sequence_length=2,
                                 stride=2, epochs=2, batch_size=4, learning_rate=1e-3,
                                 logistic_epochs=100, forest_trees=5, forest_max_depth=3),
               seed=7)


def graph_labels(panel):
    return [int(y) if v else None for y, v in zip(panel.graph_labels, panel.label_valid)]


def make_bundle(prices_panel=None, n_days=280, seed=5, tau=0.5, n_tickers=6):
    if prices_panel is None:
        dates, tickers, raw = planted_regime_panel(n_tickers=n_tickers, n_days=n_days, seed=seed)
        prices_panel = PricePanel(tickers=tickers, dates=dates, prices=raw)
    returns = log_returns(prices_panel)
    panel = attach_labels(compute_features(prices_panel), prices_panel,
                          threshold=0.10, horizon=HORIZON)
    split = chronological_split(panel.dates, ratio=0.8, horizon=HORIZON)
    panel = standardize(panel, (split.train_dates[0], split.train_dates[-1]))
    snapshots = build_snapshots(returns, panel.dates, graph_labels(panel), window=7, tau=tau)
    return DataBundle(panel=panel, snapshots=snapshots, split=split), prices_panel


@pytest.fixture(scope="module")
def bundle():
    return make_bundle()[0]


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["logistic", "forest", "gcn", "temporal"])
    def test_same_seed_same_bytes(self, bundle, kind):
        state_a, log_a = train(kind, bundle, SMALL)
        state_b, log_b = train(kind, bundle, SMALL)
        assert serialize(state_a) == serialize(state_b)
        assert log_a == log_b

    @pytest.mark.parametrize("kind", ["logistic", "forest", "gcn", "temporal"])
    def test_state_carries_the_run_identity_and_the_log_the_fit(self, bundle, kind):
        """The seed and hash are the config's and the parameter count the state's:
        the log holds only what the fit alone knows."""
        cfg = replace(SMALL, seed=9)
        state, log = train(kind, bundle, cfg)
        assert state.hyper["config_hash"] == config_hash(cfg)
        if kind in ("logistic", "forest"):
            assert set(log) == {"samples"}
        else:
            assert set(log) == {"samples", "epoch_loss", "best_epoch"}
            assert len(log["epoch_loss"]) == cfg.model.epochs
            assert log["epoch_loss"][log["best_epoch"]] == min(log["epoch_loss"])
        assert isinstance(log["samples"], int) and log["samples"] > 0

    @pytest.mark.parametrize("kind", ["forest", "gcn", "temporal"])
    def test_different_seed_different_weights(self, bundle, kind):
        state_a, _ = train(kind, bundle, SMALL)
        state_b, _ = train(kind, bundle, replace(SMALL, seed=8))
        assert any(not np.array_equal(state_a.params[k], state_b.params[k])
                   for k in state_a.params)


def two_samples():  # two one-snapshot samples on a 1-node graph, labeled 1 and 0
    return _GraphSamples(a_hat=np.ones((2, 1, 1)), ax=np.zeros((2, 1, 1)),
                         rows=np.array([[0], [1]]), labels=np.array([1.0, 0.0]),
                         dates=["d0", "d1"])


class TestLoopAgainstOracle:
    """``_train_minibatch`` on the stacked-gate step against the loop it
    replaced (a gradient dict per step, concatenated for Adam) on the per-step
    batched passes, both in ``oracles``: summation order is all that differs."""

    ORACLE = {"gcn": (oracles.batch_gcn_forward, oracles.batch_gcn_backward),
              "temporal": (oracles.batch_temporal_forward, oracles.batch_temporal_backward)}

    @pytest.mark.parametrize("loss", ["bce", "focal"])
    @pytest.mark.parametrize("kind", ["gcn", "temporal"])
    def test_epoch_losses_and_parameters_match(self, bundle, kind, loss):
        m = ModelConfig(gcn_hidden=8, mlp_hidden=4, gru_hidden=6, sequence_length=3, stride=2,
                        epochs=4, batch_size=4, learning_rate=1e-2, loss=loss)
        spec = training._KINDS[kind]
        hyper = {"k": m.sequence_length if kind == "temporal" else 1, "stride": m.stride,
                 "layers": ["correlation"], "weighted_adjacency": False}
        samples = _graph_samples(bundle, hyper, "train")
        assert len(samples.labels) > 3 * m.batch_size
        init = spec.init(len(bundle.panel.names), m, 7)
        got, got_loss, got_best = _train_minibatch(
            samples, init, getattr(training, spec.forward), getattr(training, spec.backward),
            m, 7, kind)
        want, want_loss, want_best = oracles.train_minibatch(samples, init, *self.ORACLE[kind],
                                                             m, 7, kind)
        assert got_best == want_best
        assert np.allclose(got_loss, want_loss, rtol=1e-12, atol=0)
        assert list(got) == list(want)
        for name in want:
            scale = np.max(np.abs(want[name]))
            assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name


class TestTrainingLoop:
    def test_zero_epochs_returns_initialization(self, bundle):
        from srr.models.gcn import init_gcn
        from srr.tensor import seeded_rng
        cfg = replace(SMALL, model=replace(SMALL.model, epochs=0))
        state, log = train("gcn", bundle, cfg)
        init = init_gcn(seeded_rng(7, 1), len(bundle.panel.names),
                        cfg.model.gcn_hidden, cfg.model.mlp_hidden)
        assert all(np.array_equal(state.params[k], init[k]) for k in init)
        assert log["epoch_loss"] == [] and log["best_epoch"] == -1

    def test_loss_history_length_and_sample_counts(self, bundle):
        state, log = train("gcn", bundle, SMALL)
        assert len(log["epoch_loss"]) == SMALL.model.epochs
        assert 0 <= log["best_epoch"] < SMALL.model.epochs
        assert all(np.isfinite(v) for v in log["epoch_loss"])
        # the retained parameters correspond to the best epoch's loss
        assert log["epoch_loss"][log["best_epoch"]] == min(log["epoch_loss"])

    def test_nonfinite_predictions_trapped_by_loss(self):
        samples = two_samples()
        with pytest.raises(NumericalError, match="non-finite"):
            _train_minibatch(samples, {"w": np.zeros(1)},
                             forward=lambda a, x, rows, p: (np.full(len(rows), np.nan), None),
                             backward=lambda d, c, p, g: None,
                             m=SMALL.model, seed=7, kind="gcn")

    def test_divergence_guard_names_epoch_and_batch(self, monkeypatch):
        monkeypatch.setattr(tz, "bce_loss",
                            lambda probs, targets: (float("inf"), np.zeros_like(probs)))
        samples = two_samples()
        with pytest.raises(NumericalError, match="diverged at epoch 0, batch 0"):
            _train_minibatch(samples, {"w": np.zeros(1)},
                             forward=lambda a, x, rows, p: (np.full(len(rows), 0.5), None),
                             backward=lambda d, c, p, g: None,
                             m=SMALL.model, seed=7, kind="gcn")

    def test_returns_the_best_epochs_parameters(self, monkeypatch):
        losses = iter([0.2, 0.1, 0.3])  # one batch an epoch; epoch 1 is the best
        monkeypatch.setattr(tz, "bce_loss",
                            lambda probs, targets: (next(losses), np.zeros_like(probs)))
        m = replace(SMALL.model, epochs=3)
        params, history, best = _train_minibatch(
            two_samples(), {"w": np.zeros(1)},
            forward=lambda a, ax, rows, p: (np.full(len(rows), 0.5), None),
            backward=lambda d, c, p, g: g["w"].fill(1.0), m=m, seed=7, kind="gcn")
        want, state = np.zeros(1), tz.AdamState({"w": 1}, lr=m.learning_rate)
        for _ in range(2):  # the parameters after epoch 1
            tz.adam_step(want, np.ones(1), state)
        assert best == 1 and history == [0.2, 0.1, 0.3]
        assert params["w"].tobytes() == want.tobytes()

    @pytest.mark.parametrize("k,stack,batch_size", [(1, 9, 4), (3, 30, 8), (5, 12, 16),
                                                    (2, 50, 64)])
    def test_batch_remap_equals_the_slot_ledger(self, k, stack, batch_size):
        """The snapshots and renumbered rows each batch hands to ``forward``
        equal the slot ledger's on the same chunks of random sequences."""
        rng = np.random.default_rng(k)
        n = 37
        rows = rng.integers(0, stack, size=(n, k)).astype(np.intp)
        samples = _GraphSamples(a_hat=np.arange(stack, dtype=float).reshape(-1, 1, 1),
                                ax=np.zeros((stack, 1, 1)), rows=rows,
                                labels=np.arange(n) % 2.0, dates=[""] * n)
        seen = []

        def forward(a_hat, ax, batch_rows, params):  # a_hat[i] holds its stack index
            seen.append((a_hat[:, 0, 0].astype(np.intp), batch_rows))
            return np.full(len(batch_rows), 0.5), None
        m = replace(SMALL.model, epochs=3, batch_size=batch_size)
        _train_minibatch(samples, {"w": np.zeros(1)}, forward, lambda d, c, p, g: None,
                         m, 7, "gcn")
        order, slot = tz.seeded_rng(7, 11), np.zeros(stack, dtype=np.intp)
        want = [oracles.batch_rows(rows, perm[start:start + batch_size], slot)
                for perm in [order.permutation(n) for _ in range(m.epochs)]
                for start in range(0, n, batch_size)]
        assert len(seen) == len(want)
        for (used, got), (want_used, want_rows) in zip(seen, want):
            assert np.array_equal(used, want_used)
            assert got.dtype == want_rows.dtype and got.shape == want_rows.shape == (
                len(want_rows), k)
            assert np.array_equal(got, want_rows)

    def test_single_class_training_data_rejected(self):
        rng = np.random.default_rng(0)
        n_days = 200
        raw = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.001, size=(4, n_days)), axis=1))
        calm = PricePanel(tickers=["A", "B", "C", "D"],
                          dates=business_days("2020-01-01", n_days), prices=raw)
        calm_bundle, _ = make_bundle(prices_panel=calm)
        for kind in ("logistic", "gcn", "temporal"):
            with pytest.raises(DataError, match="single-class"):
                train(kind, calm_bundle, SMALL)

    def test_unknown_kind_rejected(self, bundle):
        with pytest.raises(DataError, match="unknown model kind"):
            train("perceptron", bundle, SMALL)


class TestScoring:
    def test_day_grid_scores(self, bundle):
        state, _ = train("logistic", bundle, SMALL)
        dates, scores, labels = predict_scores(state, bundle, side="test")
        panel, split = bundle.panel, bundle.split
        expected = [d for t, d in enumerate(panel.dates)
                    if panel.label_valid[t] and split.side(d) == "test"]
        assert dates == expected
        assert scores.shape == labels.shape == (len(expected),)
        assert np.all((scores >= 0) & (scores <= 1))
        assert set(labels.tolist()) <= {0.0, 1.0}

    def test_snapshot_grid_respects_stride(self, bundle):
        state, _ = train("gcn", bundle, SMALL)
        dates, _, _ = predict_scores(state, bundle, side="train")
        grid = {s.date for s in bundle.snapshots[::SMALL.model.stride]}
        assert set(dates) <= grid
        assert all(bundle.split.side(d) == "train" for d in dates)

    def test_sequence_grid_counts(self, bundle):
        state, _ = train("temporal", bundle, SMALL)
        dates, scores, _ = predict_scores(state, bundle, side="test")
        seqs = oracles.build_sequences(bundle.snapshots, k=SMALL.model.sequence_length,
                               stride=SMALL.model.stride)
        expected = [q.date for q in seqs
                    if q.graph_label is not None and bundle.split.side(q.date) == "test"]
        assert dates == expected and len(scores) == len(expected)

    @pytest.fixture(scope="class")
    def fixture_bundle(self):  # the 20 x 600 criterion-8 panel
        return make_bundle(n_days=600, seed=7, n_tickers=20)[0]

    @pytest.mark.parametrize("kind", ["gcn", "temporal"])
    def test_graph_scores_equal_per_sample_oracle(self, fixture_bundle, kind):
        bundle, panel = fixture_bundle, fixture_bundle.panel
        cfg = replace(SMALL, model=replace(SMALL.model, stride=1, sequence_length=5))
        state, _ = train(kind, bundle, cfg)
        dates, scores, _ = predict_scores(state, bundle, side="test")
        k = state.hyper.get("k", 1)
        want_dates, want = [], []
        for seq in oracles.build_sequences(bundle.snapshots, k=k, stride=1):
            if seq.graph_label is None or bundle.split.side(seq.date) != "test":
                continue
            inputs = [(gcn_normalize(adjacency_from_snapshot(s)),
                       oracles.node_matrix(panel, panel.dates.index(s.date)))
                      for s in seq.snapshots]
            want_dates.append(seq.date)
            want.append(oracles.gcn_forward(*inputs[0], state.params)[1] if kind == "gcn"
                        else oracles.temporal_forward(inputs, state.params, state.params)[0])
        assert dates == want_dates and len(want) > 50
        assert np.max(np.abs(scores - np.array(want))) <= 1e-12


class TestGraphSamplesEqualSequencePath:
    """``_graph_samples`` builds its rows by index arithmetic on the stride grid;
    the sequence-object path it replaced (``oracles.graph_samples``) is the reference."""

    @staticmethod
    def assert_same(got, want):
        assert got is not None and want is not None
        assert np.array_equal(got.rows, want.rows) and got.rows.shape == want.rows.shape
        assert np.array_equal(got.labels, want.labels) and got.dates == want.dates
        assert got.a_hat.tobytes() == want.a_hat.tobytes()
        assert got.ax.tobytes() == want.ax.tobytes()

    @pytest.mark.parametrize("side", ["train", "test"])
    @pytest.mark.parametrize("stride", [1, 2, 5])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_rows_labels_dates_and_stacks(self, bundle, k, stride, side):
        hyper = {"k": k, "stride": stride, "layers": ["correlation"],
                 "weighted_adjacency": stride == 2}  # the |rho|-weighted stacks too
        if stride == 5:  # X gathered with a macro overlay, against oracles.node_matrix
            macro = np.random.default_rng(3).normal(size=(len(bundle.panel.dates), 3))
            bundle = DataBundle(replace(bundle.panel, macro=macro, macro_names=["m0", "m1", "m2"]),
                                bundle.snapshots, bundle.split)
        got = _graph_samples(bundle, hyper, side)
        self.assert_same(got, oracles.graph_samples(bundle, hyper, side))
        grid = [s.date for s in bundle.snapshots[::stride]]
        if side == "test" and k > 1:  # the first test window reaches back across the gap
            end = grid.index(got.dates[0])
            assert any(bundle.split.side(d) is None for d in grid[end - k + 1:end])

    def test_grid_shorter_than_k_gives_none(self, bundle):
        hyper = {"k": 5, "stride": 2, "layers": ["correlation"], "weighted_adjacency": False}
        short = DataBundle(bundle.panel, bundle.snapshots[:8], bundle.split)  # 4 grid points
        assert _graph_samples(short, hyper, "train") is None
        assert oracles.graph_samples(short, hyper, "train") is None
        five = DataBundle(bundle.panel, bundle.snapshots[:9], bundle.split)  # one window
        self.assert_same(_graph_samples(five, hyper, "train"),
                         oracles.graph_samples(five, hyper, "train"))
        assert _graph_samples(five, hyper, "test") is None  # ... and it ends on the train side


class TestNonFinite:
    @pytest.mark.parametrize("kind", ["gcn", "temporal"])
    def test_inf_encoder_weight_fails_scoring(self, bundle, kind):
        state, _ = train(kind, bundle, SMALL)
        params = {name: v.copy() for name, v in state.params.items()}
        params["w1"][0, 0] = np.inf
        broken = ModelState(kind=kind, params=params, hyper=state.hyper)
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match=kind):
            predict_scores(broken, bundle, side="test")

    @pytest.mark.parametrize("kind", ["gcn", "temporal"])
    def test_overflowed_node_feature_fails_training(self, kind):
        bundle, _ = make_bundle()
        panel = bundle.panel
        read = bundle.snapshots[::SMALL.model.stride][10]  # a labeled train-side snapshot
        assert bundle.split.side(read.date) == "train"
        panel.features[0, panel.dates.index(read.date), 0] = np.inf  # an overflowed feature
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            train(kind, bundle, SMALL)


class TestNoLookahead:
    def test_fits_ignore_test_range_prices(self):
        clean_bundle, prices = make_bundle()
        boundary = prices.dates.index(clean_bundle.split.test_dates[0])
        perturbed = prices.prices.copy()
        perturbed[:, boundary:] *= 1.0 + 0.05 * np.sin(
            np.arange(perturbed.shape[1] - boundary))
        shifted = PricePanel(tickers=prices.tickers, dates=prices.dates,
                             prices=perturbed)
        shifted_bundle, _ = make_bundle(prices_panel=shifted)
        # sanity: the test-side data really did change
        assert not np.array_equal(clean_bundle.panel.features,
                                  shifted_bundle.panel.features)
        for kind in ("logistic", "forest", "gcn", "temporal"):
            state_clean, _ = train(kind, clean_bundle, SMALL)
            state_shift, _ = train(kind, shifted_bundle, SMALL)
            assert serialize(state_clean) == serialize(state_shift), kind


class TestGraphInputs:
    def test_each_snapshot_read_is_built_once_and_never_stale(self, monkeypatch):
        import srr.training as training
        bundle, prices = make_bundle()
        built = []
        real = training.adjacency_from_snapshot
        monkeypatch.setattr(training, "adjacency_from_snapshot",
                            lambda snap, **kw: built.append(snap) or real(snap, **kw))
        m = SMALL.model

        def read(k, side):  # ids of the snapshots that the side's k-sequences read
            return {id(s) for q in oracles.build_sequences(bundle.snapshots, k=k, stride=m.stride)
                    if q.graph_label is not None and bundle.split.side(q.date) == side
                    for s in q.snapshots}

        def builds_each_read_once(call, k, side):
            built.clear()
            result = call()
            assert len(built) == len(read(k, side))
            assert {id(s) for s in built} == read(k, side)
            return result

        def scores(b):
            return [predict_scores(state, b, side=side)[1]
                    for state in states for side in ("train", "test")]

        states = []
        for kind, k in (("gcn", 1), ("temporal", m.sequence_length)):
            state = builds_each_read_once(lambda: train(kind, bundle, SMALL)[0], k, "train")
            for side in ("train", "test"):
                builds_each_read_once(lambda: predict_scores(state, bundle, side=side), k, side)
            states.append(state)
        before = scores(bundle)

        other = make_bundle(prices_panel=prices, tau=0.3)[0]
        bundle.snapshots = other.snapshots
        after = scores(bundle)
        fresh = scores(DataBundle(panel=bundle.panel, snapshots=other.snapshots,
                                  split=bundle.split))
        assert all(np.array_equal(a, f) for a, f in zip(after, fresh))
        assert any(not np.array_equal(a, b) for a, b in zip(after, before))

    def test_scoring_encodes_each_snapshot_once(self, bundle, monkeypatch):
        import srr.models.gcn as gcn
        import srr.models.temporal as temporal
        encoded = []
        for module in (gcn, temporal):
            real = module.gcn_embed
            monkeypatch.setattr(module, "gcn_embed", lambda a_hat, ax, params, real=real: (
                encoded.append(int(np.prod(a_hat.shape[:-2]))) or real(a_hat, ax, params)))
        m = SMALL.model
        for kind, k in (("gcn", 1), ("temporal", m.sequence_length)):
            state, _ = train(kind, bundle, SMALL)
            encoded.clear()
            predict_scores(state, bundle, side="test")
            read = {id(s) for q in oracles.build_sequences(bundle.snapshots, k=k, stride=m.stride)
                    if q.graph_label is not None and bundle.split.side(q.date) == "test"
                    for s in q.snapshots}
            assert sum(encoded) == len(read), kind

    def test_x_is_the_panel_node_matrix_with_macro_columns(self):
        bundle, _ = make_bundle()
        panel = bundle.panel
        panel.macro = np.arange(2.0 * len(panel.dates)).reshape(-1, 2)
        panel.macro_names = ["m0", "m1"]
        state = train("temporal", bundle, SMALL)[0]
        assert state.hyper["n_features"] == len(panel.names) + 2
        samples = _graph_samples(bundle, state.hyper, "test")
        for row, date in zip(samples.rows, samples.dates):
            t = panel.dates.index(date)
            x = oracles.node_matrix(panel, t)
            assert np.array_equal(x[:, -2:], np.tile(panel.macro[t], (6, 1)))
            assert np.array_equal(samples.ax[row[-1]], samples.a_hat[row[-1]] @ x)


class TestHeader:
    """Each kind's file, as ``train`` writes it through the command line's derive
    path and read back from its bytes, records exactly the kind's ``_header``,
    and ``check_state`` accepts it, under each option that changes a setting."""

    @pytest.mark.parametrize("sections", [
        {}, {"data": {"macro_csv": "macro.csv"}},
        {"graph": {"sector_layer": True, "weighted_adjacency": True}},
        {"model": {"loss": "focal", "focal_gamma": 2}}, {"features": {"standardize": False}}],
        ids=["defaults", "macro", "weighted_sector_layer", "focal_int_gamma", "unstandardized"])
    def test_check_state_accepts_what_train_writes(self, tmp_path, sections):
        dates, tickers, raw = planted_regime_panel(n_tickers=6, n_days=280, seed=5)
        prices = PricePanel(tickers, dates, raw,
                            universe_meta={t: "AB"[i % 2] for i, t in enumerate(tickers)})
        small = {"gcn_hidden": 4, "mlp_hidden": 3, "gru_hidden": 4, "sequence_length": 2,
                 "stride": 2, "epochs": 2, "logistic_epochs": 100, "forest_trees": 5}
        cfg = Config.from_dict({**sections, "labels": {"horizon": HORIZON},
                                "model": {**small, **sections.get("model", {})}})
        macro = None
        if cfg.data.macro_csv is not None:
            macro = tmp_path / cfg.data.macro_csv
            macro.write_text("".join(["date,level\n"] + [f"{d},{t % 7}\n"
                                                          for t, d in enumerate(dates)]))
        _, panel, split = cli._derive_features(cfg, prices, macro and str(macro))
        bundle = DataBundle(panel, cli._snapshots(cfg, prices, panel), split)
        for kind in MODEL_KINDS:
            state = deserialize(serialize(train(kind, bundle, cfg)[0]))
            training.check_state(state, kind, cfg, panel)
            header = _header(kind, cfg, panel)
            assert state.hyper == header
            assert json.dumps(state.hyper, sort_keys=True) == json.dumps(header, sort_keys=True)


class TestEdgeInputs:
    """Small panels through the command line's derive path, then every kind trained
    and scored at tiny settings: each kind ends with finite scores in [0, 1] or an
    SrrError, never another exception."""

    @settings(max_examples=40)
    @given(data=st.data())
    def test_small_panels_score_in_the_unit_interval_or_raise_srr_errors(self, data):
        n, horizon = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 60))
        t = data.draw(st.integers(3 + horizon + 1, 200))  # warm-up is 3 price dates
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rets = rng.normal(0.0, data.draw(st.sampled_from([0.005, 0.03])), (n, t - 1))
        if data.draw(st.booleans()):  # repeated returns: a coarse grid ties many values
            rets = np.round(rets, 2)
        for _ in range(data.draw(st.integers(0, 3))):  # constant-price stretches
            start = data.draw(st.integers(0, t - 2))
            rets[:data.draw(st.integers(1, n)), start:start + data.draw(st.integers(1, 30))] = 0
        prices = 100.0 * np.exp(np.concatenate([np.zeros((n, 1)), np.cumsum(rets, 1)], 1))
        panel = PricePanel([f"T{i}" for i in range(n)], business_days("2020-01-01", t), prices)
        cfg = Config.from_dict({
            "features": {"vol_windows": [3], "dd_windows": [3], "momentum_windows": [2]},
            "labels": {"threshold": data.draw(st.sampled_from([0.01, 0.05, 0.2])),
                       "horizon": horizon},
            "graph": {"window": 3, "tau": data.draw(st.sampled_from([0.3, 1.0]))},
            "model": {"gcn_hidden": 3, "mlp_hidden": 2, "gru_hidden": 3, "epochs": 2,
                      "sequence_length": data.draw(st.integers(1, 3)),
                      "stride": data.draw(st.integers(1, 3)), "batch_size": 4,
                      "logistic_epochs": 30, "forest_trees": 3, "forest_max_depth": 2},
            "split": {"ratio": data.draw(st.sampled_from([0.3, 0.8]))}})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero-variance features on constant panels
            try:
                _, zpanel, split = cli._derive_features(cfg, panel, None)
                bundle = DataBundle(zpanel, cli._snapshots(cfg, panel, zpanel), split)
            except SrrError:
                return
        for kind in MODEL_KINDS:
            try:
                _, scores, _ = predict_scores(train(kind, bundle, cfg)[0], bundle, "test")
            except SrrError:
                continue
            assert np.all(np.isfinite(scores)) and np.all((0.0 <= scores) & (scores <= 1.0))
