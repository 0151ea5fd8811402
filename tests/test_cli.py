"""End-to-end pipeline runs through the command-line entry point: artifact
inventory, byte determinism, staleness detection, and exit-code mapping."""

import codecs
import functools
import hashlib
import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import traceback
from dataclasses import asdict
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import oracles
import srr
import srr.cli
from srr.cli import STAGES, Run, main
from srr.config import (PRESETS, Config, EvaluateConfig, GraphConfig, ModelConfig, PeriodConfig,
                        config_hash, load_config)
from srr.errors import ConfigError, DataError, NumericalError, ShapeError, SrrError
from srr.features import Standardization, apply_standardization, read_features_csv
from srr.graphs import EDGE_DTYPE, read_snapshots_jsonl
from srr.market_data import read_macro_csv
from srr.models.state import deserialize, parameter_count, serialize
from srr.synthetic import RegimeParams, write_synthetic_csv

MODEL_KINDS = ("logistic", "forest", "gcn", "temporal")

EXPECTED_ARTIFACTS = (
    ["prices.csv", "provenance.json", "universe.json",
     "features.csv", "graph_labels.csv", "standardization.json", "split.json",
     "graphs.jsonl", "report.json", "summary.txt",
     "roc.svg", "pr.svg", "risk_timeline.svg", "lead_times.svg",
     "feature_importance.svg"]
    + [f"model_{k}.srrm" for k in MODEL_KINDS]
    + [f"training_log_{k}.json" for k in MODEL_KINDS]
    + [f"timeline_{k}.csv" for k in MODEL_KINDS]
    + [f"manifest_{stage}.json"
       for stage in ("ingest", "features", "graphs", "train", "evaluate", "report")]
)

COMPARABLE = [name for name in EXPECTED_ARTIFACTS
              if not name.startswith("manifest_")]  # manifests hash the out paths


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def make_workspace(root: Path, seed=7, out_name="out", n_days=400, data=None,
                   graph=None, **sections) -> tuple[str, Path]:
    """A config over ``root``'s prices.csv (10 synthetic tickers, written unless
    it exists); ``sections`` are further config sections, such as ``period``."""
    prices = root / "prices.csv"
    if not prices.exists():
        write_synthetic_csv(str(prices), n_tickers=10, n_days=n_days, seed=21)
    out = root / out_name
    cfg = {
        "data": {"prices_csv": str(prices), **(data or {})},
        "graph": graph or {},
        "labels": {"threshold": 0.10, "horizon": 20},
        "model": {
            "kinds": list(MODEL_KINDS),
            "gcn_hidden": 6, "mlp_hidden": 4, "gru_hidden": 6,
            "sequence_length": 2, "stride": 2, "epochs": 2, "batch_size": 8,
            "forest_trees": 5, "forest_max_depth": 3, "logistic_epochs": 200,
        },
        "seed": seed,
        "out": str(out),
        **sections,
    }
    cfg_path = root / f"config_{out_name}_{seed}.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    return str(cfg_path), out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path, out = make_workspace(root)
    rc = main(["run-all", "--config", cfg_path])
    assert rc == 0
    return {"root": root, "config": cfg_path, "out": out}


class TestRunAll:
    def test_every_artifact_exists(self, pipeline):
        missing = [n for n in EXPECTED_ARTIFACTS
                   if not (pipeline["out"] / n).exists()]
        assert missing == []

    def test_report_is_consistent_with_model_files(self, pipeline):
        report = json.loads((pipeline["out"] / "report.json").read_text())
        assert "out" not in report["config"]
        assert set(report["models"]) == set(MODEL_KINDS)
        for kind in MODEL_KINDS:
            blob = (pipeline["out"] / f"model_{kind}.srrm").read_bytes()
            state = deserialize(blob)
            assert state.kind == kind
            assert state.hyper["config_hash"] == report["config_hash"]
            entry = report["models"][kind]
            assert entry["parameter_count"] == parameter_count(state)
            assert 0 < entry["metrics"]["n"]
            assert entry["metrics"]["tp"] + entry["metrics"]["fp"] \
                + entry["metrics"]["tn"] + entry["metrics"]["fn"] == entry["metrics"]["n"]
        assert "feature_importance" in report["models"]["forest"]

    def test_timelines_are_parsable_and_bounded(self, pipeline):
        for kind in MODEL_KINDS:
            lines = (pipeline["out"] / f"timeline_{kind}.csv").read_text().splitlines()
            assert lines[0] == "date,score,label"
            assert len(lines) > 1
            for row in lines[1:]:
                date, score, label = row.split(",")
                assert len(date) == 10 and date[4] == date[7] == "-"
                assert 0.0 <= float(score) <= 1.0
                assert label in ("0", "1")

    def test_split_has_horizon_gap(self, pipeline):
        split = json.loads((pipeline["out"] / "split.json").read_text())
        assert set(split) == {"train_dates", "test_dates"}
        assert max(split["train_dates"]) < min(split["test_dates"])
        features = (pipeline["out"] / "features.csv").read_text().splitlines()
        feature_dates = sorted({row.split(",")[0] for row in features[1:]})
        boundary = feature_dates.index(split["test_dates"][0])
        assert len(split["train_dates"]) == boundary - 20

    def test_graphs_header_is_format_and_count(self, pipeline):
        """The run's config hash is in manifest_graphs.json, and the window, tau
        and layers are in report.json's config echo."""
        lines = (pipeline["out"] / "graphs.jsonl").read_text().splitlines()
        assert json.loads(lines[0]) == {"format": "srr-graph-v2", "snapshots": len(lines) - 1}

    def test_provenance_logs_and_report_say_each_fact_once(self, pipeline):
        """The source hash is in manifest_ingest.json and the tickers in prices.csv;
        the seed, threshold and warning gamma are in report.json's config echo,
        the config hash in every manifest and each parameter count in report.json."""
        def load(name):
            return json.loads((pipeline["out"] / name).read_text())
        assert set(load("provenance.json")) == {"rows_read", "dates_dropped"}
        for kind in MODEL_KINDS:
            assert set(load(f"training_log_{kind}.json")) == (
                {"samples"} if kind in ("logistic", "forest")
                else {"samples", "epoch_loss", "best_epoch"})
        report = load("report.json")
        assert report["config"]["evaluate"] == {"threshold": 0.5, "warn_gamma": 0.5}
        for entry in report["models"].values():
            assert "threshold" not in entry["metrics"] and "gamma" not in entry["lead_times"]

    def test_manifest_output_hashes_verify(self, pipeline):
        """Each file is the output of one manifest, and each stage records as its
        inputs every earlier stage's outputs (ingest and features also record
        the config's source files)."""
        cfg = load_config(pipeline["config"])
        sources = {"ingest": {cfg.data.prices_csv: file_sha256(cfg.data.prices_csv)}}
        earlier: dict[str, str] = {}
        owners: list[str] = []
        for stage in STAGES:
            manifest = json.loads(
                (pipeline["out"] / f"manifest_{stage}.json").read_text())
            assert set(manifest) == {"config_hash", "inputs", "outputs"}
            assert manifest["config_hash"] == config_hash(cfg)
            assert manifest["inputs"] == {**earlier, **sources.get(stage, {})}, stage
            for name, recorded in manifest["outputs"].items():
                actual = file_sha256(pipeline["out"] / name)
                assert actual == recorded, f"{stage}: {name}"
            earlier.update(manifest["outputs"])
            owners += manifest["outputs"]
        left = [p.name for p in pipeline["out"].iterdir() if not p.name.startswith("manifest_")]
        assert sorted(owners) == sorted(left)

    def test_svgs_are_well_formed(self, pipeline):
        for name in ("roc.svg", "pr.svg", "risk_timeline.svg",
                      "lead_times.svg", "feature_importance.svg"):
            doc = minidom.parseString((pipeline["out"] / name).read_text())
            assert doc.documentElement.tagName == "svg"

    def test_single_class_test_labels_omit_the_curves(self, tmp_path):
        """A long calm phase leaves no crash on any model's test side."""
        write_synthetic_csv(str(tmp_path / "prices.csv"), n_tickers=10, n_days=420, seed=21,
                            params=RegimeParams(calm_days=200))
        cfg_path, out = make_workspace(tmp_path, n_days=420)
        assert main(["run-all", "--config", cfg_path]) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(report["models"][k]["metrics"].get("auroc") is None for k in MODEL_KINDS)
        summary = (out / "summary.txt").read_text()
        assert summary.endswith("\nnote: AUROC, ROC and PR curves omitted for forest, gcn, "
                                "logistic, temporal (single-class test labels make them "
                                "undefined)\n")
        assert not (out / "roc.svg").exists() and not (out / "pr.svg").exists()
        written = ["feature_importance.svg", "lead_times.svg", "risk_timeline.svg", "summary.txt"]
        manifest = json.loads((out / "manifest_report.json").read_text())
        assert manifest["outputs"] == {name: file_sha256(out / name)
                                       for name in written}

    def test_summary_mentions_every_model(self, pipeline):
        text = (pipeline["out"] / "summary.txt").read_text()
        for kind in MODEL_KINDS:
            assert kind in text
        assert "auroc" in text

    def test_one_function_writes_every_json_artifact(self, tmp_path, monkeypatch):
        """``cli._write_json`` writes each JSON file of a run once, report.json and
        the manifests included, all in one format: sorted keys, a two-space indent
        and a final newline. The stages run alone, so no forked child writes."""
        cfg_path, out = make_workspace(tmp_path, n_days=300)
        write_json, written = srr.cli._write_json, []

        def recording(path, obj):
            written.append(os.path.basename(path))
            write_json(path, obj)
        monkeypatch.setattr(srr.cli, "_write_json", recording)
        for stage in STAGES:
            assert main([stage, "--config", cfg_path]) == 0
        names = sorted(p.name for p in out.glob("*.json"))
        assert sorted(written) == names and len(names) == 15
        for name in names:
            text = (out / name).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestDeterminism:
    def test_same_config_different_out_dir_is_byte_identical(self, pipeline):
        cfg_path, out2 = make_workspace(pipeline["root"], out_name="out2")
        assert main(["run-all", "--config", cfg_path]) == 0
        for name in COMPARABLE:
            a = (pipeline["out"] / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"artifact {name} differs across output directories"

    def test_rerun_into_same_dir_is_idempotent(self, pipeline):
        before = {n: (pipeline["out"] / n).read_bytes() for n in EXPECTED_ARTIFACTS}
        assert main(["run-all", "--config", pipeline["config"]]) == 0
        after = {n: (pipeline["out"] / n).read_bytes() for n in EXPECTED_ARTIFACTS}
        assert before == after

    def test_seed_flag_changes_models(self, pipeline, tmp_path):
        cfg_path, out3 = make_workspace(pipeline["root"], out_name="out3")
        assert main(["run-all", "--config", cfg_path, "--seed", "8"]) == 0
        a = (pipeline["out"] / "model_gcn.srrm").read_bytes()
        b = (out3 / "model_gcn.srrm").read_bytes()
        assert a != b


def write_layer_inputs(root: Path) -> dict:
    """A three-sector universe and a two-column macro file for the synthetic
    prices of ``make_workspace``; returns the matching ``data`` section."""
    universe, macro = root / "universe.csv", root / "macro.csv"
    universe.write_text("ticker,sector\n" + "".join(
        f"SYN{i:02d},{'abc'[i % 3]}\n" for i in range(10)))
    dates = sorted({row.split(",")[0]
                    for row in (root / "prices.csv").read_text().splitlines()[1:]})
    macro.write_text("date,vix,rate\n" + "".join(
        f"{d},{10.0 + t % 7!r},{0.01 * (t % 5)!r}\n" for t, d in enumerate(dates)))
    return {"universe_csv": str(universe), "macro_csv": str(macro)}


class TestLayersAndMacro:
    GRAPH = {"sector_layer": True, "weighted_adjacency": True}

    def test_run_all_reads_macro_and_sector_layer(self, tmp_path):
        """Two runs write the same bytes, and so does a third whose config, price,
        universe and macro files each start with a UTF-8 byte-order mark."""
        make_workspace(tmp_path)  # writes prices.csv
        data = write_layer_inputs(tmp_path)
        outs = []
        for name in ("layered", "layered2", "bom"):
            cfg_path, out = make_workspace(tmp_path, out_name=name, data=data,
                                           graph=self.GRAPH)
            if name == "bom":  # the same paths, so the same config hash
                for path in (cfg_path, tmp_path / "prices.csv", *data.values()):
                    Path(path).write_bytes(codecs.BOM_UTF8 + Path(path).read_bytes())
            assert main(["run-all", "--config", cfg_path]) == 0
            outs.append(out)
        for kind in ("gcn", "temporal"):
            state = deserialize((outs[0] / f"model_{kind}.srrm").read_bytes())
            assert state.hyper["n_features"] == 7 + 2
            assert state.hyper["layers"] == ["correlation", "sector"]
            assert state.hyper["weighted_adjacency"] is True
        records = (outs[0] / "graphs.jsonl").read_text().splitlines()[1:]
        assert records and all(json.loads(r)["layers"]["sector"] for r in records)
        for name in COMPARABLE + ["macro.csv"]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
            assert (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes(), name

    def test_macro_columns_keep_their_own_importance_bars(self, tmp_path):
        """Only a day feature's mean_<f>/std_<f> columns fold onto one bar; a
        macro column keeps its name, whatever its prefix."""
        make_workspace(tmp_path)  # writes prices.csv
        macro = Path(write_layer_inputs(tmp_path)["macro_csv"])
        macro.write_text("date,vix,mean_vix\n" + macro.read_text().split("\n", 1)[1])
        cfg_path, out = make_workspace(tmp_path, out_name="o", data={"macro_csv": str(macro)},
                                       model={"kinds": ["forest"], "forest_trees": 5})
        assert main(["run-all", "--config", cfg_path]) == 0
        importance = json.loads((out / "report.json").read_text())["models"]["forest"][
            "feature_importance"]
        assert {"vix", "mean_vix"} <= set(importance)
        svg = minidom.parseString((out / "feature_importance.svg").read_text())
        bars = sorted(t.firstChild.data for t in svg.getElementsByTagName("text")
                      if t.getAttribute("text-anchor") == "end")
        assert bars == sorted(["ret_1d", "vol_20", "vol_60", "dd_20", "dd_60", "mom_10",
                               "mom_30", "vix", "mean_vix"])

    def test_a_macro_name_with_markup_characters_draws_well_formed_svgs(self, tmp_path):
        """``&`` and ``<`` are allowed in a column name; every chart escapes them."""
        make_workspace(tmp_path)  # writes prices.csv
        macro = Path(write_layer_inputs(tmp_path)["macro_csv"])
        macro.write_text("date,S&P<vix>\n" + "".join(
            line.rsplit(",", 1)[0] + "\n" for line in macro.read_text().splitlines()[1:]))
        cfg_path, out = make_workspace(tmp_path, out_name="o", data={"macro_csv": str(macro)},
                                       model={"kinds": ["forest"], "forest_trees": 5})
        assert main(["run-all", "--config", cfg_path]) == 0
        svgs = sorted(out.glob("*.svg"))
        assert out / "feature_importance.svg" in svgs
        texts = {t.firstChild.data for path in svgs
                 for t in minidom.parse(str(path)).getElementsByTagName("text") if t.firstChild}
        assert "S&P<vix>" in texts

    def test_duplicate_universe_ticker_exits_two_naming_the_file(self, capsys, tmp_path):
        make_workspace(tmp_path)  # writes prices.csv
        data = write_layer_inputs(tmp_path)
        with open(data["universe_csv"], "a", encoding="utf-8") as fh:
            fh.write("SYN00,b\n")
        cfg_path, _ = make_workspace(tmp_path, out_name="dup", data=data, graph=self.GRAPH)
        assert main(["ingest", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert f"universe file {data['universe_csv']}: line 12: duplicate ticker SYN00" in err

    def test_edited_universe_stops_graphs(self, capsys, tmp_path):
        make_workspace(tmp_path)
        cfg_path, out = make_workspace(tmp_path, out_name="edited", n_days=260,
                                       data=write_layer_inputs(tmp_path), graph=self.GRAPH)
        for stage in ("ingest", "features"):
            assert main([stage, "--config", cfg_path]) == 0
        universe = json.loads((out / "universe.json").read_text())
        universe["SYN00"] = "z"
        (out / "universe.json").write_text(json.dumps(universe))
        assert main(["graphs", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "universe.json" in err and "rerun `srr ingest`" in err


EXPORTS = ("features.csv", "graph_labels.csv", "standardization.json", "split.json",
           "graphs.jsonl")


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRunAllHandOff:
    """`run-all` hands each stage what the stage before it derived from the
    ingested files, where a standalone stage derives it again; both must write
    the same bytes, and neither parses an export."""

    @pytest.fixture(params=["plain", "layered", "unstandardized"])
    def workspace(self, request, tmp_path):
        make_workspace(tmp_path)  # writes prices.csv
        if request.param == "plain":
            return make_workspace(tmp_path, out_name="o")
        if request.param == "unstandardized":
            return make_workspace(tmp_path, out_name="o", features={"standardize": False})
        return make_workspace(tmp_path, out_name="o", data=write_layer_inputs(tmp_path),
                              graph=TestLayersAndMacro.GRAPH)

    def test_run_all_writes_what_the_stage_commands_write(self, workspace):
        cfg_path, out = workspace
        for stage in STAGES:
            assert main([stage, "--config", cfg_path]) == 0
        staged = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)  # same directory, so the manifests' paths agree too
        assert main(["run-all", "--config", cfg_path]) == 0
        handed = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(handed) == sorted(staged)
        assert [n for n in staged if handed[n] != staged[n]] == []

    @pytest.mark.parametrize("before,command", [((), "run-all"), (STAGES[:3], "train")],
                             ids=["run-all", "train"])
    def test_one_derivation_standardizes_once(self, workspace, monkeypatch, before, command):
        """The models read the panel that ``standardize`` built (or the identity
        statistics applied once): no command z-scores the feature cube twice."""
        import srr.features
        cfg_path, _ = workspace
        for stage in before:
            assert main([stage, "--config", cfg_path]) == 0
        calls, real = [], srr.features.apply_standardization

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(srr.features, "apply_standardization", counted)
        monkeypatch.setattr(srr.cli, "apply_standardization", counted)
        assert main([command, "--config", cfg_path]) == 0
        assert len(calls) == 1

    def test_run_all_builds_each_adjacency_stack_once(self, workspace, monkeypatch):
        """Each graph kind's train-side and test-side A_hat stacks are built
        once: the test-side check before the first fit sizes them, builds none."""
        import srr.training as training
        cfg_path, _ = workspace
        samples, adjacency, normalize = (training._graph_samples, training.adjacency_from_snapshot,
                                         training.gcn_normalize)
        side, builds, stacks, normalized = [], {}, {}, []

        def tracked(bundle, hyper, which, check_only=False):
            side.append(("temporal" if "k" in hyper else "gcn", which))
            try:
                built = samples(bundle, hyper, which, check_only)
            finally:
                key = side.pop()
            if not check_only:
                stacks.setdefault(key, []).append(len(built.a_hat))
            return built

        def counted(*args, **kwargs):
            builds[side[-1]] = builds.get(side[-1], 0) + 1
            return adjacency(*args, **kwargs)

        def normalize_counted(adj):
            normalized.append(len(adj))
            return normalize(adj)
        monkeypatch.setattr(training, "_graph_samples", tracked)
        monkeypatch.setattr(training, "adjacency_from_snapshot", counted)
        monkeypatch.setattr(training, "gcn_normalize", normalize_counted)
        assert main(["run-all", "--config", cfg_path]) == 0
        keys = {(kind, which) for kind in ("gcn", "temporal") for which in ("train", "test")}
        assert set(stacks) == set(builds) == keys
        assert {key: [builds[key]] for key in keys} == stacks
        assert sorted(normalized) == sorted(g for (g,) in stacks.values())

    def test_run_all_reads_back_no_artifact(self, workspace, monkeypatch):
        """Every stage command and run-all opens an export only to write it or,
        through ``sha256_file``, to hash it; run-all also reads back no
        ``macro.csv`` and ingests the source prices only."""
        import builtins
        import srr.cli as cli
        cfg_path, out = workspace
        exports = {str(out / name) for name in EXPORTS}
        hashing, real_open, real_hash = [], builtins.open, cli.sha256_file

        def hash_file(path):
            hashing.append(path)
            try:
                return real_hash(path)
            finally:
                hashing.pop()

        def guarded_open(file, mode="r", *args, **kwargs):
            if "r" in mode and file in exports and not hashing:
                raise AssertionError(f"{file} read back")
            return real_open(file, mode, *args, **kwargs)
        monkeypatch.setattr(cli, "sha256_file", hash_file)
        monkeypatch.setattr(builtins, "open", guarded_open)
        for stage in STAGES:
            assert main([stage, "--config", cfg_path]) == 0
        with pytest.raises(AssertionError, match="features.csv read back"):
            read_features_csv(str(out / "features.csv"))  # the guard sees a reader

        real_macro, ingested, real_ingest = cli.read_macro_csv, [], cli.ingest_csv

        def macro(path):
            assert Path(path).resolve().parent != out.resolve(), f"re-read {path}"
            return real_macro(path)

        def ingest(path, **kwargs):
            ingested.append(path)
            return real_ingest(path, **kwargs)
        monkeypatch.setattr(cli, "read_macro_csv", macro)
        monkeypatch.setattr(cli, "ingest_csv", ingest)
        assert main(["run-all", "--config", cfg_path]) == 0
        assert [Path(p).name for p in ingested] == ["prices.csv"]
        assert Path(ingested[0]).parent != out

    def test_derived_bundle_equals_the_exports_read_back(self, workspace):
        """The bundle a standalone stage derives equals, bit for bit, the one the
        readers rebuild from the features and graphs exports."""
        cfg_path, out = workspace
        for stage in ("ingest", "features", "graphs"):
            assert main([stage, "--config", cfg_path]) == 0
        cfg = load_config(cfg_path)
        run = Run(cfg)
        run.require("train")
        bundle = srr.cli._bundle(run)
        derived = bundle.panel
        stats = Standardization(**json.loads((out / "standardization.json").read_text()))
        read = apply_standardization(read_features_csv(str(out / "features.csv")), stats)
        dates, graph_labels, valid = oracles.read_graph_labels_csv(str(out / "graph_labels.csv"))
        assert (derived.tickers, derived.dates, derived.names) == (read.tickers, dates, read.names)
        assert read.dates == dates
        for got, want in [(derived.features, read.features),
                          (derived.graph_labels, graph_labels),
                          (derived.label_valid, valid),
                          (derived.standardization.mean, stats.mean),
                          (derived.standardization.std, stats.std)]:
            assert same_bits(got, want)
        if cfg.data.macro_csv is None:
            assert derived.macro is None
        else:
            m_dates, names, values = read_macro_csv(str(out / "macro.csv"))
            assert (m_dates, names) == (dates, derived.macro_names)
            assert same_bits(derived.macro, values)
        assert asdict(bundle.split) == json.loads((out / "split.json").read_text())

        snapshots, _ = read_snapshots_jsonl(str(out / "graphs.jsonl"))
        assert len(snapshots) == len(bundle.snapshots) == len(dates)
        for got, want in zip(bundle.snapshots, snapshots):
            assert (got.date, got.node_ids, got.graph_label) == (
                want.date, want.node_ids, want.graph_label)
            assert sorted(got.layers) == sorted(want.layers) == list(cfg.graph.layers)
            for name, layer in got.layers.items():
                assert layer.dtype == EDGE_DTYPE and same_bits(layer, want.layers[name])

    def test_train_and_evaluate_ignore_what_the_exports_hold(self, workspace):
        """Every export overwritten with garbage, its manifest hash re-recorded:
        graphs, train and evaluate write the same bytes."""
        cfg_path, out = workspace
        for stage in ("ingest", "features", "graphs", "train", "evaluate"):
            assert main([stage, "--config", cfg_path]) == 0
        clean = {p.name: p.read_bytes() for p in out.iterdir()
                 if p.name.startswith(("model_", "training_log_", "timeline_", "report"))}
        graphs = (out / "graphs.jsonl").read_bytes()
        for name in EXPORTS[:-1]:
            rewrite_bytes(out, name, "features", lambda data: b"not,an\nexport\n")
        assert main(["graphs", "--config", cfg_path]) == 0
        assert (out / "graphs.jsonl").read_bytes() == graphs
        rewrite_bytes(out, "graphs.jsonl", "graphs", lambda data: b"not,an\nexport\n")
        for stage in ("train", "evaluate"):
            assert main([stage, "--config", cfg_path]) == 0
        assert {name: (out / name).read_bytes() for name in clean} == clean


def assert_upstream_verifies(cfg_path) -> None:
    """The ingest, features and graphs files exist and match their manifests."""
    Run(load_config(str(cfg_path))).require("train")


class NeedsTwoArgs(Exception):
    """Pickles, but loading calls ``NeedsTwoArgs("lost")``, which raises TypeError."""

    def __init__(self, first, second):
        super().__init__(first + second)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWriterChild:
    """Inside `run-all` a forked child writes the ingest, features and graphs
    files while the parent trains; the parent joins it before it verifies them."""

    @pytest.fixture
    def workspace(self, tmp_path):
        return make_workspace(tmp_path, n_days=260)

    @staticmethod
    def diverge(*args, **kwargs):
        raise NumericalError("training diverged")

    @pytest.mark.parametrize("fail,code,message", [
        (DataError("graphs: bad layer"), 2, "graphs: bad layer"),
        (OSError(28, "No space left on device"), 1, "[Errno 28] No space left on device"),
        ("kill", 1, "writer: child ended by SIGKILL"),
    ], ids=["data-error", "os-error", "killed"])
    def test_writer_failure_exits_after_training(self, capsys, monkeypatch, workspace,
                                                 fail, code, message):
        """The writer fails while the first kind trains; no other kind starts."""
        cfg_path, out = workspace
        go_read, go_write = os.pipe()  # the child fails once the parent trains
        trained = []

        def failing_writer(*args, **kwargs):  # runs in the child
            os.read(go_read, 1)
            if fail == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise fail
        monkeypatch.setattr("srr.cli.write_snapshots_jsonl", failing_writer)
        real_train = srr.cli.train

        def train(kind, *args):  # runs in the parent
            if not trained:
                os.write(go_write, b"x")
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)  # ended, not yet reaped
            trained.append(kind)
            return real_train(kind, *args)
        monkeypatch.setattr("srr.cli.train", train)
        try:
            assert main(["run-all", "--config", cfg_path]) == code
        finally:
            os.close(go_read)
            os.close(go_write)
        assert capsys.readouterr().err == f"error: {message}\n"
        assert trained == ["logistic"]
        assert not (out / "model_logistic.srrm").exists()  # no model once the writer failed
        assert (out / "manifest_features.json").exists()  # the stages before it are written
        assert not (out / "manifest_graphs.json").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("fail,code", [
        (DataError("graphs: bad layer"), 2), (NumericalError("graphs: overflow"), 3),
        (OSError(28, "No space left on device"), 1),
    ], ids=["data-error", "numerical-error", "os-error"])
    def test_writer_failure_reads_as_the_stage_alone(self, capsys, monkeypatch, tmp_path,
                                                     fail, code):
        """`run-all` and `srr graphs` end with the same error line and exit code."""
        def failing_writer(*args, **kwargs):
            raise fail
        monkeypatch.setattr("srr.cli.write_snapshots_jsonl", failing_writer)
        ends = []
        for name, commands in ("run-all", ["run-all"]), ("stages", ["ingest", "features",
                                                                   "graphs"]):
            cfg_path, _ = make_workspace(tmp_path, out_name=name, n_days=260)
            codes = [main([command, "--config", cfg_path]) for command in commands]
            ends.append((codes[-1], capsys.readouterr().err))
        assert ends[0] == ends[1] == (code, f"error: {fail}\n")
        assert_no_child_left()

    @pytest.mark.parametrize("lost", ["local-class", "two-argument-init"])
    def test_writer_exception_that_does_not_pickle(self, capsys, monkeypatch, workspace,
                                                   lost):
        cfg_path, _ = workspace

        class Local(Exception):  # pickles by a name that does not resolve
            pass

        def failing_writer(*args, **kwargs):
            raise Local("lost") if lost == "local-class" else NeedsTwoArgs("lo", "st")
        monkeypatch.setattr("srr.cli.write_snapshots_jsonl", failing_writer)
        assert main(["run-all", "--config", cfg_path]) == 1
        assert (capsys.readouterr().err
                == "error: writer: child exited with status 1 and no reply\n")
        assert_no_child_left()

    def test_writer_value_error_leaves_main_as_itself(self, monkeypatch, tmp_path):
        """An exception that is no SrrError or OSError is a bug: `main` does not
        report it, inside `run-all` or in the stage run alone."""
        def failing_writer(*args, **kwargs):
            raise ValueError("a bug")
        monkeypatch.setattr("srr.cli.write_snapshots_jsonl", failing_writer)
        real_train = srr.cli.train

        def train(kind, *args):  # the writer has ended before the first kind trains
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            return real_train(kind, *args)
        monkeypatch.setattr("srr.cli.train", train)
        cfg_path, _ = make_workspace(tmp_path, out_name="run-all", n_days=260)
        with pytest.raises(ValueError) as caught:
            main(["run-all", "--config", cfg_path])
        assert_no_child_left()
        assert str(caught.value) == "a bug"
        frames = [frame.name for frame in traceback.extract_tb(caught.value.__traceback__)]
        assert frames.count("join") == 1  # a second raise does not stack its frames again
        if sys.version_info >= (3, 11):  # the child's own frames come as a note
            assert 'in failing_writer\n    raise ValueError("a bug")' in caught.value.__notes__[0]
        cfg_path, _ = make_workspace(tmp_path, out_name="stages", n_days=260)
        for command in ("ingest", "features"):
            assert main([command, "--config", cfg_path]) == 0
        with pytest.raises(ValueError, match="^a bug$"):
            main(["graphs", "--config", cfg_path])

    def test_writer_failure_wins_over_a_training_failure(self, capsys, monkeypatch,
                                                         workspace):
        cfg_path, _ = workspace

        def fail(*args, **kwargs):
            raise DataError("features: bad file")
        monkeypatch.setattr("srr.cli.write_features_csv", fail)
        monkeypatch.setattr("srr.cli.train", self.diverge)
        assert main(["run-all", "--config", cfg_path]) == 2
        assert capsys.readouterr().err == "error: features: bad file\n"
        assert_no_child_left()

    def test_training_failure_leaves_verified_upstream_files(self, capsys, monkeypatch,
                                                             workspace):
        cfg_path, _ = workspace
        monkeypatch.setattr("srr.cli.train", self.diverge)
        assert main(["run-all", "--config", cfg_path]) == 3
        assert capsys.readouterr().err == "error: training diverged\n"
        assert_upstream_verifies(cfg_path)
        assert_no_child_left()

    def test_interrupt_ends_run_all_as_an_interrupt(self, capsys, monkeypatch, workspace):
        """Ctrl-C reaches the writer child and the training parent alike; run-all
        ends as an interrupt, not as the writer's failure."""
        cfg_path, _ = workspace

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr("srr.cli.write_snapshots_jsonl", interrupt)  # runs in the child
        monkeypatch.setattr("srr.cli.train", interrupt)  # runs in the parent
        with pytest.raises(KeyboardInterrupt):
            main(["run-all", "--config", cfg_path])
        assert "error:" not in capsys.readouterr().err
        assert_no_child_left()

    def test_run_all_trains_each_kind_once_before_the_train_command(self, monkeypatch,
                                                                     workspace):
        cfg_path, _ = workspace
        cfg = json.loads(Path(cfg_path).read_text())
        cfg["model"]["kinds"] = kinds = ["temporal", "logistic", "gcn", "forest"]
        Path(cfg_path).write_text(json.dumps(cfg))
        trained, real_train, real_cmd_train = [], srr.cli.train, srr.cli.cmd_train

        def train(kind, *args):
            trained.append(kind)
            return real_train(kind, *args)

        def cmd_train(*args):  # writes what run-all trained, and trains nothing
            assert trained == kinds
            real_cmd_train(*args)
            assert trained == kinds
        monkeypatch.setattr("srr.cli.train", train)
        monkeypatch.setattr("srr.cli.cmd_train", cmd_train)
        assert main(["run-all", "--config", cfg_path]) == 0
        assert trained == kinds
        assert_no_child_left()

    def test_without_fork_run_all_writes_the_same_bytes(self, capfd, monkeypatch,
                                                        workspace):
        cfg_path, out = workspace
        assert main(["run-all", "--config", cfg_path]) == 0
        forked = {p.name: p.read_bytes() for p in out.iterdir()}
        printed = capfd.readouterr().out
        shutil.rmtree(out)
        monkeypatch.delattr(os, "fork")
        assert main(["run-all", "--config", cfg_path]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == forked
        assert capfd.readouterr().out == printed
        assert_no_child_left()


def rewrite_artifact(out: Path, name: str, stage: str, edit) -> None:
    """Rewrite an artifact line by line, ``edit(i, line)``, and re-record its
    hash in the stage manifest, as an earlier run (or another program) would
    have left it."""
    rewrite_bytes(out, name, stage, lambda data: "".join(
        edit(i, line) + "\n" for i, line in enumerate(data.decode().splitlines())).encode())


def rewrite_bytes(out: Path, name: str, stage: str, edit) -> None:
    """``rewrite_artifact`` on the whole file, ``edit(data) -> data``."""
    path = out / name
    path.write_bytes(edit(path.read_bytes()))
    manifest = json.loads((out / f"manifest_{stage}.json").read_text())
    manifest["outputs"][name] = file_sha256(path)
    (out / f"manifest_{stage}.json").write_text(json.dumps(manifest))


def short_row(i, line):
    return ",".join(line.split(",")[:-1]) if i == 2 else line


def bad_cell(col):
    def edit(i, line):
        cells = line.split(",")
        return ",".join(cells[:col] + ["abc"] + cells[col + 1:]) if i == 2 else line
    return edit


class TestMalformedArtifacts:
    """A pipeline CSV with a short row or a non-numeric cell, its manifest hash
    re-recorded, stops the stage that reads it with exit 2 and an error that
    names the file and the line."""

    @pytest.fixture(scope="class")
    def evaluated(self, tmp_path_factory):
        cfg_path, out = make_workspace(tmp_path_factory.mktemp("malformed"), n_days=260)
        for stage in ("ingest", "features", "graphs", "train", "evaluate"):
            assert main([stage, "--config", cfg_path]) == 0
        return cfg_path, out

    @pytest.mark.parametrize("name,stage,command,number_col", [
        ("timeline_logistic.csv", "evaluate", "report", 1),
    ])
    @pytest.mark.parametrize("edit", ["short-row", "non-numeric"])
    def test_exits_two_naming_file_and_line(self, capsys, tmp_path, evaluated,
                                            name, stage, command, number_col, edit):
        cfg_path, out = evaluated
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        rewrite_artifact(copy, name, stage,
                         short_row if edit == "short-row" else bad_cell(number_col))
        assert main([command, "--config", cfg_path, "--out", str(copy)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{copy / name}: line 3: " in err
        assert ("fields, got" if edit == "short-row" else "'abc'") in err


def cut_second_line(data: bytes) -> bytes:
    start = data.index(b"\n") + 1
    end = data.find(b"\n", start) % (len(data) + 1)  # no newline: the end of the file
    return data[:(start + end) // 2]


def drop_key(key):
    def edit(data):
        return json.dumps({k: v for k, v in json.loads(data).items() if k != key}).encode()
    edit.__name__ = f"drop_{key}"
    return edit


def replace_json(change, name):
    """A bytes edit of a JSON file, ``change(value) -> value``."""
    def edit(data):
        return json.dumps(change(json.loads(data))).encode()
    edit.__name__ = name
    return edit


def model_header(change, name):
    """A bytes edit of a model file that rewrites its JSON header as
    ``change(header)`` and records the new header length."""
    def edit(data):
        start = len(b"srr-model-v2\n") + 8
        end = start + struct.unpack_from("<Q", data, start - 8)[0]
        head = json.dumps(change(json.loads(data[start:end]))).encode()
        return data[:start - 8] + struct.pack("<Q", len(head)) + head + data[end:]
    edit.__name__ = name
    return edit


def model_state(change, name):
    """A bytes edit of a model file that decodes it, applies ``change(state)``
    to the ModelState in place and writes it again."""
    def edit(data):
        state = deserialize(data)
        change(state)
        return serialize(state)
    edit.__name__ = name
    return edit


def as_v1(data: bytes) -> bytes:
    """A model file edit that gives it the magic line of format srr-model-v1."""
    return b"srr-model-v1\n" + data[len(b"srr-model-v2\n"):]


def layered_workspace(root: Path, seed=7) -> tuple[str, Path]:
    """``make_workspace`` over 260 days with a sector layer and a macro file."""
    make_workspace(root, n_days=260)  # writes prices.csv
    return make_workspace(root, seed=seed, out_name="o", data=write_layer_inputs(root),
                          graph=TestLayersAndMacro.GRAPH)


@functools.cache
def trained_at(seed: int, name: str) -> bytes:
    """The bytes of file ``name`` after `srr train` on ``layered_workspace(seed)``."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = layered_workspace(Path(tmp), seed)
        for stage in ("ingest", "features", "graphs", "train"):
            assert main([stage, "--config", cfg_path]) == 0
        return (out / name).read_bytes()


def from_seed(seed, name):
    """A model file edit that puts in its place file ``name`` of a run at ``seed``."""
    def edit(data):
        return trained_at(seed, name)
    edit.__name__ = f"from_seed_{seed}"
    return edit


# (model file, edit, what the error says): files of another format, and files
# that decode but do not fit their kind, the run's panel, the run or their name
DAMAGED_MODELS = [
    ("model_logistic.srrm", as_v1, "not an srr-model-v2 container"),
    ("model_gcn.srrm", from_seed(8, "model_gcn.srrm"), 'the gcn model records config_hash = "'),
    ("model_gcn.srrm", model_state(lambda s: s.hyper.clear(), "gcn_without_hyper"),
     "records no 'batch_size' setting"),
    ("model_logistic.srrm",
     model_state(lambda s: s.params.update(x=s.params.pop("w")), "w_renamed_x"),
     "lacks tensor 'w'"),
    ("model_gcn.srrm",
     model_state(lambda s: s.params.update(w1=s.params["w1"][:3]), "w1_of_three_rows"),
     "tensor 'w1' has shape (3, 6); its settings imply (9, 6)"),
    ("model_temporal.srrm", model_state(lambda s: s.hyper.update(k="5"), "k_a_string"),
     'records k = "5"; the run gives 2'),
    ("model_gcn.srrm", model_state(lambda s: s.hyper.update(stride=0), "stride_zero"),
     "records stride = 0; the run gives 2"),
    ("model_gcn.srrm", model_state(lambda s: s.hyper.update(layers=["nope"]), "unknown_layer"),
     'records layers = ["nope"]; the run gives ["correlation", "sector"]'),
    ("model_forest.srrm", model_state(lambda s: [s.params.pop(k) for k in list(s.params)
                                                  if k.startswith("tree_")], "no_trees"),
     "lacks tensor 'tree_0000'"),
    ("model_logistic.srrm",
     model_state(lambda s: s.params.update(w=s.params["w"][:3]), "w_of_three_values"),
     "tensor 'w' has shape (3,); its settings imply (16,)"),
    ("model_gcn.srrm", model_state(lambda s: setattr(s, "kind", "temporal"), "a_temporal"),
     "holds a temporal model, not a gcn model"),
    ("model_temporal.srrm",
     model_state(lambda s: s.hyper.update(n_features=3), "three_node_features"),
     "records n_features = 3; the run gives 9"),
    ("model_forest.srrm", model_state(lambda s: s.hyper["inputs"].reverse(), "inputs_reversed"),
     'records inputs = ["rate", "vix", "std_mom_30"'),
    ("model_gcn.srrm", model_state(lambda s: s.hyper.update(extra=1), "an_extra_setting"),
     "records an unknown setting 'extra'"),
    ("model_temporal.srrm",
     model_state(lambda s: s.hyper.update(k=float(s.hyper["k"])), "k_a_float"),
     "records k = 2.0; the run gives 2"),
    ("model_gcn.srrm", model_state(lambda s: s.hyper.update(
        weighted_adjacency=int(s.hyper["weighted_adjacency"])), "weighted_adjacency_an_int"),
     "records weighted_adjacency = 1; the run gives true"),
]


def change_lines(change, name):
    """A bytes edit that applies ``change(lines)`` to the file's lines in place."""
    def edit(data):
        lines = data.decode().splitlines()
        change(lines)
        return "".join(line + "\n" for line in lines).encode()
    edit.__name__ = name
    return edit


def _set_cell(row, col, value):
    def change(lines):
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
    return change


# (file, its stage, the command it stops, edit, text the error must hold): a
# timeline cell that is not a finite score and a 0 or 1 label
DAMAGED_CELLS = [
    ("timeline_temporal.csv", "evaluate", "report",
     change_lines(_set_cell(1, 2, "3"), "label_3"), "line 2: expected a finite score"),
    ("timeline_temporal.csv", "evaluate", "report",
     change_lines(_set_cell(1, 1, "nan"), "nan_score"), "rerun `srr evaluate`"),
]


class TestCutArtifacts:
    """Every artifact a stage reads back, cut in the middle of its second line
    (or a JSON artifact without a key it needs, or a model file that decodes
    but does not fit its kind or the run), its manifest hash re-recorded,
    stops the stage that reads it with exit 2 and one error line."""

    @pytest.fixture(scope="class")
    def evaluated(self, tmp_path_factory):
        cfg_path, out = layered_workspace(tmp_path_factory.mktemp("cut"))
        for stage in ("ingest", "features", "graphs", "train", "evaluate"):
            assert main([stage, "--config", cfg_path]) == 0
        return cfg_path, out

    @pytest.mark.parametrize("name,stage,command,edit", [
        ("prices.csv", "ingest", "features", cut_second_line),
        ("prices.csv", "ingest", "train", cut_second_line),
        ("universe.json", "ingest", "graphs", cut_second_line),
        ("universe.json", "ingest", "evaluate", cut_second_line),
        ("macro.csv", "features", "train", cut_second_line),
        ("model_temporal.srrm", "train", "evaluate", cut_second_line),
        ("model_logistic.srrm", "train", "evaluate", model_header(
            lambda h: {k: v for k, v in h.items() if k != "tensors"}, "header_without_tensors")),
        ("model_logistic.srrm", "train", "evaluate", model_header(list, "header_list")),
        ("universe.json", "ingest", "graphs", replace_json(sorted, "ticker_list")),
        ("report.json", "evaluate", "report", cut_second_line),
        ("report.json", "evaluate", "report", drop_key("models")),
        ("timeline_temporal.csv", "evaluate", "report", cut_second_line),
    ] + [case[:4] for case in DAMAGED_CELLS]
      + [(name, "train", "evaluate", edit) for name, edit, _ in DAMAGED_MODELS],
        ids=lambda v: v.__name__ if callable(v) else None)
    def test_exits_two_with_an_error_line(self, capsys, tmp_path, evaluated,
                                          name, stage, command, edit):
        self.exits_two(capsys, tmp_path, evaluated, name, stage, command, edit)

    @pytest.mark.parametrize("name,stage,command,edit,says", DAMAGED_CELLS,
                             ids=[f"{c[0]}-{c[2]}-{c[3].__name__}" for c in DAMAGED_CELLS])
    def test_damaged_cells_name_the_line_and_the_stage_to_rerun(
            self, capsys, tmp_path, evaluated, name, stage, command, edit, says):
        err = self.exits_two(capsys, tmp_path, evaluated, name, stage, command, edit)
        assert says in err and "rerun `srr" in err

    @pytest.mark.parametrize("name,edit,says", DAMAGED_MODELS,
                             ids=[f"{c[0]}-{c[1].__name__}" for c in DAMAGED_MODELS])
    def test_damaged_models_say_what_does_not_fit_and_to_rerun_train(
            self, capsys, tmp_path, evaluated, name, edit, says):
        err = self.exits_two(capsys, tmp_path, evaluated, name, "train", "evaluate", edit)
        assert says in err and err.endswith("; rerun `srr train`\n")

    @staticmethod
    def exits_two(capsys, tmp_path, evaluated, name, stage, command, edit) -> str:
        cfg_path, out = evaluated
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        rewrite_bytes(copy, name, stage, edit)
        assert main([command, "--config", cfg_path, "--out", str(copy)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err
        assert "rerun `srr" in err and err.count("rerun") == 1
        return err


def each_line(edit, name):
    """A bytes edit that rewrites every line as ``edit(i, line)``."""
    def apply(data):
        return "".join(edit(i, line) + "\n"
                       for i, line in enumerate(data.decode().splitlines())).encode()
    apply.__name__ = name
    return apply


def change_key(key, change, name):
    def edit(data):
        raw = json.loads(data)
        return json.dumps({**raw, key: change(raw.get(key))}).encode()
    edit.__name__ = name
    return edit


def graph_record(line_no, change, name):
    """A graphs.jsonl edit: line ``line_no`` (0 is the header) becomes ``change(record)``."""
    return each_line(lambda i, line: change(json.loads(line)) if i == line_no else line, name)


def _first_one_to_two(lines):
    i = next(i for i, line in enumerate(lines) if line.endswith(",1"))
    lines[i] = lines[i][:-1] + "2"


def _duplicate_first_row(lines):
    cells = lines[1].split(",")
    lines.append(",".join(cells[:2] + [repr(float(cells[2]) + 1.0)] + cells[3:]))


# every command that requires each export, and the stage that writes it
EXPORT_READERS = {"features.csv": ("features", ("train", "evaluate")),
                  "graph_labels.csv": ("features", ("graphs", "train", "evaluate")),
                  "standardization.json": ("features", ("train", "evaluate")),
                  "split.json": ("features", ("train", "evaluate")),
                  "graphs.jsonl": ("graphs", ("train", "evaluate"))}

# (export, command, edit): a cut line for every reader, and damage a stage that
# parsed the exports used to reject: short rows, bad cells and labels, a renamed
# or duplicated feature, bad statistics or split, and graph records off the panel
DAMAGED_EXPORTS = [(name, command, cut_second_line)
                   for name, (_, commands) in EXPORT_READERS.items()
                   for command in commands] + [
    ("features.csv", "train", each_line(short_row, "short_row")),
    ("features.csv", "train", each_line(bad_cell(2), "non_numeric")),
    ("features.csv", "train", change_lines(_duplicate_first_row, "duplicate_row")),
    ("features.csv", "train", change_lines(_set_cell(1, -1, "7"), "mom_30_7")),
    ("features.csv", "train", change_lines(_set_cell(0, 3, "foo"), "renamed_feature")),
    ("graph_labels.csv", "train", each_line(short_row, "short_row")),
    ("graph_labels.csv", "train", each_line(bad_cell(1), "non_numeric")),
    ("graph_labels.csv", "graphs", change_lines(_first_one_to_two, "label_2")),
    ("graph_labels.csv", "train", change_lines(_first_one_to_two, "label_2")),
    ("graph_labels.csv", "train", change_lines(_set_cell(-1, 1, "1"), "last_date_labeled")),
    ("graph_labels.csv", "evaluate",
     change_lines(_set_cell(-1, 1, "1"), "last_date_labeled")),
    ("standardization.json", "train", drop_key("mean")),
    ("standardization.json", "train", change_key("mean", lambda v: v[1:], "short_mean")),
    ("standardization.json", "train",
     change_key("std", lambda v: [0.0] + v[1:], "zero_std")),
    ("standardization.json", "train",
     change_key("std", lambda v: [float("nan")] + v[1:], "nan_std")),
    ("standardization.json", "train", change_key("scale", lambda v: 1.0, "unknown_key")),
    ("split.json", "train", drop_key("train_dates")),
    ("split.json", "train", change_key("test_dates", lambda v: [], "no_test")),
    ("split.json", "train", change_key("test_dates", lambda v: v[5:], "late_test")),
    ("graphs.jsonl", "train",
     graph_record(0, lambda rec: json.dumps({**rec, "format": "srr-graph-v1"}), "v1")),
    ("graphs.jsonl", "train",
     graph_record(3, lambda rec: json.dumps({**rec, "date": "1999-01-01"}), "off_date")),
    ("graphs.jsonl", "train",
     graph_record(3, lambda rec: json.dumps({**rec, "nodes": ["X"] * 10}), "off_nodes")),
    ("graphs.jsonl", "train", graph_record(3, lambda rec: "{not json", "not_json")),
    ("graphs.jsonl", "train", graph_record(
        3, lambda rec: json.dumps({k: v for k, v in rec.items() if k != "layers"}),
        "no_layers")),
] + [("graphs.jsonl", "train", graph_record(
        3, lambda rec, edge=edge: json.dumps({**rec, "layers": {"correlation": [edge]}}),
        f"edge_{name}"))
     for name, edge in (("below_zero", [-1, 1, 0.5]), ("diagonal", [2, 2, 0.9]),
                        ("past_last_node", [0, 10, 0.5]))]


class TestDamagedExports:
    """No stage parses an export, but each is still hashed in its stage's
    manifest: any damage, its hash left as written, stops every command that
    requires the export with exit 2, one error line that says which stage to
    rerun, and no file written."""

    evaluated = TestCutArtifacts.evaluated

    @pytest.mark.parametrize("name,command,edit", DAMAGED_EXPORTS,
                             ids=[f"{c[0]}-{c[1]}-{c[2].__name__}" for c in DAMAGED_EXPORTS])
    def test_stops_its_readers_by_hash(self, capsys, tmp_path, evaluated, name, command, edit):
        cfg_path, out = evaluated
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        clean = (copy / name).read_bytes()
        (copy / name).write_bytes(edit(clean))
        assert (copy / name).read_bytes() != clean
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        assert main([command, "--config", cfg_path, "--out", str(copy)]) == 2
        stage = EXPORT_READERS[name][0]
        assert capsys.readouterr().err == (
            f"error: artifact {name} no longer matches the '{stage}' manifest; "
            f"rerun `srr {stage}`\n")
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before


class TestLoadConfig:
    def test_config_hash_bytes_are_pinned(self):
        """The hash of the canonical config JSON, pinned for the default config
        and the layered test config (with relative data paths)."""
        layered = {
            "data": {"prices_csv": "prices.csv", "universe_csv": "universe.csv",
                     "macro_csv": "macro.csv"},
            "graph": TestLayersAndMacro.GRAPH,
            "labels": {"threshold": 0.10, "horizon": 20},
            "model": {"kinds": list(MODEL_KINDS), "gcn_hidden": 6, "mlp_hidden": 4,
                      "gru_hidden": 6, "sequence_length": 2, "stride": 2, "epochs": 2,
                      "batch_size": 8, "forest_trees": 5, "forest_max_depth": 3,
                      "logistic_epochs": 200},
            "seed": 7,
            "out": "o",
        }
        assert (config_hash(Config())
                == "8e42f71e5d789e8b31a65ea59ad41ceee9294949917759de2f73915582f575c1")
        assert (config_hash(Config.from_dict(layered))
                == "86c1e693db312d9c1be510e8ab7dc2aaafd9ac78cf993a274786eecc920dd37c")

    def test_cli_overrides_enter_the_one_validation(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 3, "out": "a", "period": {"start": "2015-06-01"}}))
        cfg = load_config(str(path), seed=9, preset="gfc", out="b")
        assert (cfg.seed, cfg.out, cfg.period) == (9, "b", PeriodConfig(preset="gfc"))
        assert cfg.period.resolve() == PRESETS["gfc"]
        assert config_hash(load_config(None)) == config_hash(Config())

    def test_bad_values_keep_their_messages(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"period": {"preset": "mars"}}))
        with pytest.raises(ConfigError, match=re.escape(
                "period.preset must be 'dotcom' or 'gfc' or 'covid' or null, got 'mars'")):
            load_config(str(path))
        with pytest.raises(ConfigError, match=r"^seed must lie in \[0, inf\), got -1$"):
            load_config(None, seed=-1)
        with pytest.raises(ConfigError, match="out must be a non-empty path string"):
            load_config(None, out="")
        path.write_text("[]")
        with pytest.raises(ConfigError, match="config root must be a mapping"):
            load_config(str(path), seed=1)

    @pytest.mark.parametrize("section,key,value,interval", [
        ("labels", "threshold", 1.0, "(0, 1)"), ("labels", "horizon", 0, "[1, inf)"),
        ("graph", "window", 2, "[3, inf)"), ("graph", "tau", float("nan"), "(0, 1]"),
        ("model", "epochs", -1, "[0, inf)"), ("model", "learning_rate", float("inf"), "(0, inf)"),
        ("split", "ratio", 0.0, "(0, 1)"), ("evaluate", "threshold", -0.5, "[0, 1]"),
        ("evaluate", "warn_gamma", float("-inf"), "[0, 1]"), ("", "seed", -1, "[0, inf)"),
    ])
    def test_direct_construction_checks_each_interval(self, section, key, value, interval):
        """A section built in Python checks its fields' intervals as a loaded one does."""
        cls = Config if not section else type(getattr(Config(), section))
        name = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=re.escape(
                f"{name} must lie in {interval}, got {value}") + "$"):
            cls(**{key: value})

    @pytest.mark.parametrize("cls,key,value,rule", [
        (ModelConfig, "stride", 1.5, "model.stride must be int, got 1.5"),
        (ModelConfig, "epochs", True, "model.epochs must be int, got True"),
        (GraphConfig, "tau", "0.5", "graph.tau must be float, got '0.5'"),
        (Config, "seed", None, "seed must be int, got None"),
    ])
    def test_direct_construction_checks_each_type(self, cls, key, value, rule):
        """A section built in Python checks its fields' annotations as a loaded one does."""
        with pytest.raises(ConfigError, match=re.escape(rule) + "$"):
            cls(**{key: value})

    def test_direct_construction_turns_lists_into_tuples(self):
        model = ModelConfig(kinds=["gcn"])
        assert model.kinds == ("gcn",)
        assert (config_hash(Config(model=model))
                == config_hash(Config(model=ModelConfig(kinds=("gcn",))))
                == config_hash(Config.from_dict({"model": {"kinds": ["gcn"]}})))

    def test_closed_ends_pass(self):
        assert GraphConfig(tau=1.0).tau == 1.0
        assert (EvaluateConfig(threshold=0.0).threshold, EvaluateConfig(warn_gamma=1.0).warn_gamma,
                ModelConfig(epochs=0).epochs, Config(seed=0).seed) == (0.0, 1.0, 0, 0)


class TestConfigPaths:
    """A crisis preset or a period config cuts the ingested prices and names the
    period in summary.txt; ``features.standardize: false`` keeps raw features."""

    @pytest.mark.parametrize("args,sections,period,first,last", [
        (["--preset", "gfc"], {}, "gfc", "2006-01-02", "2011-12-31"),
        ([], {"period": {"start": "2010-01-04", "end": "2011-06-30"}},
         "2010-01-04..2011-06-30", "2010-01-04", "2011-06-30"),
        ([], {"period": {"start": "2010-01-04"}}, "2010-01-04.....", "2010-01-04", "2011-09-01"),
    ], ids=["preset", "start_end", "start"])
    def test_period_cuts_the_prices_and_names_the_report(self, tmp_path, args, sections,
                                                         period, first, last):
        write_synthetic_csv(str(tmp_path / "prices.csv"), n_tickers=10, n_days=2000, seed=21,
                            start="2004-01-02")
        cfg_path, out = make_workspace(tmp_path, **sections)
        assert main(["run-all", "--config", cfg_path, *args]) == 0
        dates = [line.split(",")[0] for line in (out / "prices.csv").read_text().splitlines()[1:]]
        assert dates[0] == first and dates[-1] <= last
        assert set(json.loads((out / "report.json").read_text())) == {
            "config", "config_hash", "split", "models"}
        assert (out / "summary.txt").read_text().startswith(f"period: {period} ")

    def test_unstandardized_statistics_are_zeros_and_ones(self, tmp_path):
        cfg_path, out = make_workspace(tmp_path, n_days=260, features={"standardize": False})
        for stage in ("ingest", "features"):
            assert main([stage, "--config", cfg_path]) == 0
        stats = json.loads((out / "standardization.json").read_text())
        assert (stats["mean"], stats["std"], stats["degenerate"]) == ([0.0] * 7, [1.0] * 7, [])


class TestExitCodes:
    def test_usage_errors_exit_one(self, capsys, tmp_path):
        assert main([]) == 1
        assert "missing subcommand" in capsys.readouterr().err
        assert main(["no-such-stage"]) == 1
        assert main(["run-all", "--preset", "mars-landing"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_prices_config_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "prices_csv" in capsys.readouterr().err

    @pytest.mark.parametrize("make", [lambda p: p.mkdir(), lambda p: p.write_bytes(b"{\xff}")],
                             ids=["directory", "invalid-utf8"])
    def test_unreadable_config_exits_one(self, capsys, tmp_path, make):
        path = tmp_path / "cfg.json"
        make(path)
        assert main(["ingest", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command,blocked", [
        ("ingest", ""), ("run-all", ""), ("ingest", "prices.csv")],
        ids=["out-is-a-file-ingest", "out-is-a-file-run-all", "prices-csv-is-a-directory"])
    def test_unwritable_output_path_exits_one(self, capsys, tmp_path, command, blocked):
        """An --out that names a file, or a directory where a stage writes a file,
        ends in one error line, not a traceback."""
        cfg_path, out = make_workspace(tmp_path, n_days=260)
        if blocked:
            (out / blocked).mkdir(parents=True)
        else:
            out.write_text("not a directory\n")
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_malformed_config_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["ingest", "--config", str(bad)]) == 1
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"bogus_section": 1}))
        assert main(["ingest", "--config", str(unknown)]) == 1
        assert "bogus_section" in capsys.readouterr().err

    @pytest.mark.parametrize("section,values", [
        ("model", {"batch_size": 0}), ("features", {"vol_windows": []}),
        ("model", {"gcn_hidden": 0}), ("graph", {"tau": "0.5"}), ("graph", {"window": 7.5}),
        ("model", {"stride": 1.5}), ("model", {"epochs": 1.5}),
        ("model", {"learning_rate": "x"}), ("model", {"kinds": []}),
        ("model", {"forest_trees": 0}), ("features", {"vol_windows": [1]}),
        ("model", {"loss": "focal", "focal_gamma": -1}), ("model", {"epochs": -1}),
        ("evaluate", {"warn_gamma": float("nan")}), ("evaluate", {"warn_gamma": float("inf")}),
        ("model", {"focal_gamma": float("inf")}), ("model", {"logistic_tol": float("inf")}),
        ("evaluate", {"warn_gamma": -3}), ("evaluate", {"warn_gamma": 7}),
        ("period", {"start": "2015/06/01"}), ("period", {"start": "June 2015"}),
        ("period", {"start": "2016-01-01", "end": "2015-12-31"}),
        ("period", {"preset": "gfc", "start": "2007-06-01"}),
        ("period", {"preset": "covid", "end": "2019-01-01"}),
        ("features", {"vol_windows": [20, 20]}), ("features", {"dd_windows": [20, 60, 20]}),
        ("features", {"momentum_windows": [10, 10]}),
        ("model", {"kinds": ["logistic", "logistic"]}), ("data", {"tickers": []}),
        ("model", {"kinds": ["svm"]}), ("model", {"loss": "mse"}),
        ("data", {"tickers": ["A", "A"]}),
    ], ids=lambda v: v if isinstance(v, str) else ",".join(
        f"{key}={json.dumps(value)}" for key, value in v.items()))
    def test_bad_config_value_exits_one_before_any_stage(self, capsys, tmp_path,
                                                         section, values):
        cfg_path, out = make_workspace(tmp_path, n_days=300)
        cfg = json.loads(Path(cfg_path).read_text())
        cfg.setdefault(section, {}).update(values)
        Path(cfg_path).write_text(json.dumps(cfg))
        assert main(["run-all", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{section}.{list(values)[-1]}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("header,column,rule", [
        ("date,vix,vix", "vix", "appears twice"),
        ("date,vix,mean_ret_1d", "mean_ret_1d", "repeats the name of a day-feature column"),
        ("date,vix,vol_20", "vol_20", "repeats the name of a node-feature column"),
    ], ids=["twice", "day-feature", "node-feature"])
    def test_macro_names_are_distinct_model_inputs(self, capsys, tmp_path, header, column, rule):
        """A day model's inputs are reported by name, so two with one name would
        leave one importance out of report.json; and a column named like a
        feature would share that feature's bar in feature_importance.svg."""
        make_workspace(tmp_path)  # writes prices.csv
        macro = Path(write_layer_inputs(tmp_path)["macro_csv"])
        macro.write_text(header + "\n" + macro.read_text().split("\n", 1)[1])
        cfg_path, out = make_workspace(tmp_path, out_name="o", data={"macro_csv": str(macro)})
        assert main(["ingest", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main(["features", "--config", cfg_path]) == 2
        assert capsys.readouterr().err == (
            f"error: macro file {macro}: macro column {column!r} {rule}\n")
        assert not (out / "manifest_features.json").exists()

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 7.28 TiB for an array", "Unable to allocate 7.28 TiB for an array"),
        ("", "out of memory")], ids=["numpy", "bare"])
    def test_memory_error_exits_two(self, capsys, tmp_path, monkeypatch, message, line):
        """An allocation that fails (here a raised MemoryError, never a real huge
        one) stops the run with one error line and exit 2."""
        cfg_path, out = make_workspace(tmp_path, model={"kinds": ["gcn"]})

        def refuse(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr("srr.tensor.glorot_uniform", refuse)
        assert main(["run-all", "--config", cfg_path]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (out / "manifest_train.json").exists()

    def test_adjacency_stacks_beyond_memory_exit_two(self, capsys, tmp_path, monkeypatch):
        """A side whose adjacency stacks would not fit in physical memory stops
        train with one error line naming N, G and the estimate: the test side,
        which train checks before its first fit."""
        cfg_path, out = make_workspace(tmp_path)
        for stage in ("ingest", "features", "graphs"):
            assert main([stage, "--config", cfg_path]) == 0
        capsys.readouterr()
        build = srr.cli.build_snapshots

        def build_then_run_short(*args, **kwargs):  # memory runs short once the graphs are built
            snapshots = build(*args, **kwargs)
            monkeypatch.setattr("srr.graphs._physical_memory", lambda: 1000)
            return snapshots
        monkeypatch.setattr("srr.cli.build_snapshots", build_then_run_short)
        assert main(["train", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        match = re.fullmatch(r"error: the test side's (\d+) graphs of 10 nodes need about "
                             r"([\d,]+) bytes of adjacency stacks, beyond physical memory\n",
                             err)
        assert match and int(match[2].replace(",", "")) == 4 * int(match[1]) * 10 * 10 * 8
        assert not (out / "manifest_train.json").exists()

    def test_graph_build_beyond_memory_exit_two(self, capsys, tmp_path, monkeypatch):
        """A graphs stage whose correlations and edges would not fit in physical
        memory stops with one error line naming N, the date count and the
        estimate, and writes no graphs.jsonl."""
        cfg_path, out = make_workspace(tmp_path)
        for stage in ("ingest", "features"):
            assert main([stage, "--config", cfg_path]) == 0
        capsys.readouterr()
        monkeypatch.setattr("srr.graphs._physical_memory", lambda: 1000)
        assert main(["graphs", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        match = re.fullmatch(r"error: (\d+) graphs of 10 nodes need about ([\d,]+) bytes of "
                             r"correlations and edges, beyond physical memory\n", err)
        block = 256 * 1024 // (8 * 10 * 10)  # dates per correlation block at N = 10
        assert match and int(match[2].replace(",", "")) == (
            16 * 10 * 9 + 32 * min(block, int(match[1])) * 10 * 10)
        assert not (out / "graphs.jsonl").exists()
        assert not (out / "manifest_graphs.json").exists()

    def test_stage_without_upstream_exits_two(self, capsys, tmp_path):
        cfg_path, _ = make_workspace(tmp_path, out_name="fresh")
        assert main(["features", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "rerun `srr ingest`" in err

    def test_missing_upstream_manifest_exits_two(self, capsys, tmp_path):
        cfg_path, out = make_workspace(tmp_path, out_name="unrecorded", n_days=260)
        for stage in ("ingest", "features"):
            assert main([stage, "--config", cfg_path]) == 0
        (out / "manifest_features.json").unlink()
        capsys.readouterr()
        assert main(["graphs", "--config", cfg_path]) == 2
        assert capsys.readouterr().err == (
            "error: no stage manifest for 'features'; rerun `srr features`\n")

    @pytest.mark.parametrize("case", ["features", "graphs", "train", "no-test-days"])
    def test_stage_data_error_leaves_the_finished_stages(self, capsys, tmp_path, case):
        """A macro file that lacks a feature date stops features, and the sector
        layer without sector labels stops graphs. A kind with no labeled sample
        on the train side stops train, and so does one with none on the test
        side, before any kind is fit. Each exits 2. Run alone or in run-all, the
        stages before it leave the same files, verified by their manifests, and
        no model or training log is written."""
        failing = "train" if case == "no-test-days" else case
        if case == "train":  # 9 points of a 40-day stride grid: one labeled window, past the split
            write_synthetic_csv(str(tmp_path / "prices.csv"), n_tickers=8, n_days=410, seed=7)
            cfg_path, out = make_workspace(tmp_path, out_name="o", model={
                "kinds": ["temporal"], "stride": 40, "sequence_length": 9})
            message = "temporal: no labeled train sequences"
        elif case == "no-test-days":  # the default 60-day horizon labels no test day
            write_synthetic_csv(str(tmp_path / "prices.csv"), n_tickers=8, n_days=300, seed=7)
            cfg_path, out = make_workspace(tmp_path, out_name="o", labels={}, model={
                "stride": 2, "epochs": 1, "sequence_length": 2, "forest_trees": 3})
            message = "logistic: no labeled test days"
        elif failing == "features":
            make_workspace(tmp_path)  # writes prices.csv
            macro = Path(write_layer_inputs(tmp_path)["macro_csv"])
            lines = macro.read_text().splitlines(keepends=True)
            macro.write_text("".join(lines[:101] + lines[102:]))  # date 100 of 400
            cfg_path, out = make_workspace(tmp_path, out_name="o",
                                           data={"macro_csv": str(macro)})
            message = f"macro file {macro} lacks 1 feature dates (first: {lines[101][:10]})"
        else:
            cfg_path, out = make_workspace(tmp_path, out_name="o", graph={"sector_layer": True})
            message = "graph.sector_layer is on but the ingested universe carries no sector labels"
        finished = STAGES[:STAGES.index(failing)]
        for stage in finished:
            assert main([stage, "--config", cfg_path]) == 0
        capsys.readouterr()
        assert main([failing, "--config", cfg_path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        staged = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        assert main(["run-all", "--config", cfg_path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == staged
        assert sorted(p.name for p in out.glob("manifest_*")) == sorted(
            f"manifest_{stage}.json" for stage in finished)
        assert not [*out.glob("model_*"), *out.glob("training_log_*")]
        Run(load_config(cfg_path)).require(failing)
        assert_no_child_left()

    def test_evaluate_before_train_names_model_artifact(self, capsys, tmp_path):
        cfg_path, _ = make_workspace(tmp_path, out_name="half", n_days=260)
        for stage in ("ingest", "features", "graphs"):
            assert main([stage, "--config", cfg_path]) == 0
        assert main(["evaluate", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "model_logistic.srrm" in err
        assert "rerun `srr train`" in err

    def test_seed_mismatch_is_stale(self, capsys, tmp_path):
        cfg_path, _ = make_workspace(tmp_path, out_name="stale", n_days=260)
        assert main(["ingest", "--config", cfg_path]) == 0
        assert main(["features", "--config", cfg_path, "--seed", "99"]) == 2
        err = capsys.readouterr().err
        assert "stale" in err and "rerun `srr ingest`" in err

    @pytest.mark.parametrize("error,code", [(NumericalError, 3), (ShapeError, 3),
                                            (DataError, 2), (SrrError, 1)])
    def test_error_class_decides_the_exit_code(self, capsys, monkeypatch, tmp_path,
                                               error, code):
        cfg_path, _ = make_workspace(tmp_path, out_name="codes", n_days=260)
        for stage in ("ingest", "features", "graphs"):
            assert main([stage, "--config", cfg_path]) == 0
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise error("training failed")
        monkeypatch.setattr("srr.cli.train", fail)
        assert main(["train", "--config", cfg_path]) == code
        assert capsys.readouterr().err == "error: training failed\n"

    def test_unrecorded_upstream_artifact_is_stale(self, capsys, tmp_path):
        """A file the upstream manifest does not record is not trusted, even
        when every recorded hash matches."""
        cfg_path, out = make_workspace(tmp_path, out_name="unrecorded", n_days=260)
        for stage in ("ingest", "features"):
            assert main([stage, "--config", cfg_path]) == 0
        manifest = json.loads((out / "manifest_features.json").read_text())
        del manifest["outputs"]["graph_labels.csv"]
        (out / "manifest_features.json").write_text(json.dumps(manifest))
        labels = out / "graph_labels.csv"
        labels.write_text(labels.read_text().replace(",0\n", ",1\n", 1))
        assert main(["graphs", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "graph_labels.csv" in err and "rerun `srr features`" in err

    def test_prices_ingested_anew_stop_train_until_the_chain_reruns(self, capsys, tmp_path):
        """train derives from prices.csv, so it refuses one that the features
        or graphs stage was not built from, and says which stage to rerun."""
        cfg_path, out = make_workspace(tmp_path, out_name="chain", n_days=260)
        for stage in ("ingest", "features", "graphs"):
            assert main([stage, "--config", cfg_path]) == 0
        write_synthetic_csv(str(tmp_path / "prices.csv"), n_tickers=10, n_days=260, seed=22)
        for command, rerun in (("ingest", None), ("train", "features"), ("features", None),
                               ("train", "graphs"), ("graphs", None), ("train", None)):
            capsys.readouterr()
            assert main([command, "--config", cfg_path]) == (2 if rerun else 0), command
            if rerun:
                err = capsys.readouterr().err
                assert f"stage '{rerun}' was built from another prices.csv" in err
                assert err.rstrip().endswith(f"rerun `srr {rerun}`")
                assert not (out / "manifest_train.json").exists()

    def test_prices_ingested_anew_stop_evaluate_and_report_until_they_rerun(self, capsys,
                                                                            tmp_path):
        """Models and an evaluation from the old panel are never scored or drawn
        beside files built from the new one."""
        cfg_path, _ = make_workspace(tmp_path, out_name="mix", n_days=260)
        assert main(["run-all", "--config", cfg_path]) == 0
        write_synthetic_csv(str(tmp_path / "prices.csv"), n_tickers=10, n_days=260, seed=22)
        for command, rerun in (("ingest", None), ("features", None), ("graphs", None),
                               ("evaluate", "train"), ("train", None),
                               ("report", "evaluate"), ("evaluate", None), ("report", None)):
            capsys.readouterr()
            assert main([command, "--config", cfg_path]) == (2 if rerun else 0), command
            if rerun:
                assert capsys.readouterr().err == (
                    f"error: stage '{rerun}' was built from another prices.csv; "
                    f"rerun `srr {rerun}`\n")

    def test_tampered_artifact_detected(self, capsys, tmp_path):
        cfg_path, out = make_workspace(tmp_path, out_name="tamper", n_days=260)
        assert main(["ingest", "--config", cfg_path]) == 0
        prices = out / "prices.csv"
        prices.write_bytes(prices.read_bytes() + b"X,oops\n")
        assert main(["features", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "prices.csv" in err and "rerun `srr ingest`" in err


def overwrite(name, text):
    def edit(out: Path):
        (out / name).write_text(text)
    return edit


def stale_hash(out: Path):
    manifest = json.loads((out / "manifest_graphs.json").read_text())
    (out / "manifest_graphs.json").write_text(json.dumps({**manifest, "config_hash": "0" * 64}))


class TestRerunHint:
    """Every refusal of an earlier stage's files ends in one rerun hint, and the
    hint names the stage that wrote the refused file."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        cfg_path, out = make_workspace(tmp_path_factory.mktemp("hint"), n_days=260,
                                       model={"kinds": ["logistic"]})
        for stage in ("ingest", "features", "graphs", "train"):
            assert main([stage, "--config", cfg_path]) == 0
        return cfg_path, out

    @pytest.mark.parametrize("edit,command,message,upstream", [
        (lambda out: (out / "graphs.jsonl").unlink(), "train",
         "missing artifact graphs.jsonl (needed by 'train')", "graphs"),
        (lambda out: (out / "manifest_train.json").unlink(), "evaluate",
         "no stage manifest for 'train'", "train"),
        (overwrite("manifest_graphs.json", "not json"), "evaluate",
         "{out}/manifest_graphs.json is malformed "
         "(JSONDecodeError: Expecting value: line 1 column 1 (char 0))", "graphs"),
        (stale_hash, "train",
         "artifacts from stage 'graphs' are stale (config or seed changed)", "graphs"),
        (lambda out: rewrite_artifact(out, "prices.csv", "ingest", lambda i, line: line + "0"
                                      if i == 1 else line), "train",
         "stage 'features' was built from another prices.csv", "features"),
        (overwrite("training_log_logistic.json", "{}"), "evaluate",
         "artifact training_log_logistic.json no longer matches the 'train' manifest", "train"),
    ], ids=["missing-artifact", "missing-manifest", "malformed-manifest", "stale",
            "built-from-another-file", "edited-output"])
    def test_one_hint_names_the_stage(self, capsys, tmp_path, trained, edit, command,
                                      message, upstream):
        cfg_path, out = trained
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        edit(copy)
        capsys.readouterr()
        assert main([command, "--config", cfg_path, "--out", str(copy)]) == 2
        assert capsys.readouterr().err == (
            f"error: {message.format(out=copy)}; rerun `srr {upstream}`\n")


class TestStaleFiles:
    """Recording its manifest, a stage removes the files it writes under another
    config but did not write now, so a rerun into the same directory leaves
    exactly the files its manifests list."""

    @pytest.mark.parametrize("narrow", ["kinds", "macro"])
    def test_narrower_rerun_leaves_only_listed_files(self, tmp_path, narrow):
        make_workspace(tmp_path, n_days=300)  # writes prices.csv
        model = {"kinds": ["logistic", "forest"], "forest_trees": 5, "forest_max_depth": 3}
        if narrow == "kinds":
            wide, narrower = {"model": model}, {"model": {**model, "kinds": ["logistic"]}}
        else:
            macro = write_layer_inputs(tmp_path)["macro_csv"]
            wide, narrower = {"model": model, "data": {"macro_csv": macro}}, {"model": model}
        for sections in (wide, narrower):
            cfg_path, out = make_workspace(tmp_path, **sections)
            assert main(["run-all", "--config", cfg_path]) == 0
        manifests = {p.name for p in out.glob("manifest_*.json")}
        listed = {name for m in manifests for name in json.loads((out / m).read_text())["outputs"]}
        assert {p.name for p in out.iterdir()} == listed | manifests
        gone = {"kinds": ["model_forest.srrm", "training_log_forest.json", "timeline_forest.csv",
                          "feature_importance.svg"], "macro": ["macro.csv"]}[narrow]
        assert not any((out / name).exists() for name in gone)


REPO_ROOT = Path(__file__).resolve().parents[1]


def write_console_script(directory: Path, name: str) -> Path:
    """Write the wrapper an installer generates for the console script
    `name` declared in this checkout's pyproject.toml (the PyPA entry-points
    template: import the callable, call it with no arguments, exit with its
    return value), so the declaration is tested without installing it."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        ref = tomllib.load(fh)["project"]["scripts"][name]
    module, _, qualname = ref.partition(":")
    script = directory / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {qualname.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({qualname}())\n")
    script.chmod(0o755)
    return script


class TestInstalledEntryPoint:
    @staticmethod
    def child_env() -> dict:
        """The child imports the same `srr` this session imported, not
        whatever copy happens to be installed."""
        src_root = str(Path(srr.__file__).resolve().parents[1])
        return dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src_root, os.environ.get("PYTHONPATH")])))

    def test_srr_script_maps_exit_codes(self, tmp_path):
        exe = write_console_script(tmp_path, "srr")
        cfg_path, _ = make_workspace(tmp_path, out_name="sub")
        proc = subprocess.run([str(exe), "features", "--config", cfg_path],
                              capture_output=True, text=True, env=self.child_env())
        assert proc.returncode == 2
        assert "rerun `srr ingest`" in proc.stderr

    def test_divergence_exits_three_naming_the_model(self, tmp_path):
        """A learning rate of 1e300 on the 20 x 600 fixture: the run exits 3
        with the kind in its error, and no NumPy warning reaches stderr."""
        prices = tmp_path / "prices.csv"
        write_synthetic_csv(str(prices), n_tickers=20, n_days=600, seed=7)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "data": {"prices_csv": str(prices)},
            "labels": {"threshold": 0.10, "horizon": 20},
            "model": {"kinds": ["gcn", "temporal"], "stride": 1, "epochs": 6,
                      "learning_rate": 1e300},
            "seed": 7, "out": str(tmp_path / "out")}))
        proc = subprocess.run([sys.executable, "-m", "srr.cli", "run-all", "--config",
                               str(cfg_path)], capture_output=True, text=True,
                              env=self.child_env())
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: gcn: training diverged at epoch ")
        assert "RuntimeWarning" not in proc.stderr
        assert_upstream_verifies(cfg_path)  # the writer child finished before the exit
        assert_no_child_left()

    def test_run_all_prints_every_stage_in_order_through_a_pipe(self, tmp_path):
        """Through a pipe stdout is block-buffered; the ingest, features and graphs
        lines the writer child prints still come out, before the parent's."""
        cfg_path, _ = make_workspace(tmp_path, n_days=260)
        env = self.child_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([sys.executable, "-m", "srr.cli", "run-all", "--config", cfg_path],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert [line.split(":", 1)[0] for line in proc.stdout.splitlines()] == (
            ["ingest", "features", "graphs"] + [f"train[{k}]" for k in MODEL_KINDS]
            + [f"evaluate[{k}]" for k in MODEL_KINDS] + ["report"])

    def test_module_invocation_offers_help(self):
        proc = subprocess.run([sys.executable, "-c",
                               "from srr.cli import main; raise SystemExit(main(['--help']))"],
                              capture_output=True, text=True, env=self.child_env())
        assert proc.returncode == 0
        assert "ingest" in proc.stdout and "run-all" in proc.stdout
