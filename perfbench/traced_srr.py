"""Run one `srr` command with spans recorded around the package's public functions.

    python3 perfbench/traced_srr.py SPANS.npz <srr arguments...>

Wrappers are installed from outside the program, on the names the calling
modules look up (``srr.cli.ingest_csv``, ``srr.training.adjacency_from_snapshot``,
``srr.models.temporal.gcn_embed``, ``srr.tensor.matmul``...). Each call records a
span (name, parent, start, end) in memory; the spans and a few counters are
written to SPANS.npz when the command ends, and the exit code is passed on.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array

import numpy as np


class Serials:
    """Stable serial numbers for live objects (``id`` alone is reused after GC)."""

    def __init__(self):
        self._by_id: dict[int, tuple[weakref.ref, int]] = {}
        self._next = 0

    def of(self, obj) -> int:
        entry = self._by_id.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        self._next += 1
        self._by_id[id(obj)] = (weakref.ref(obj), self._next)
        return self._next


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.serials = Serials()
        self.a_hat_built: set[int] = set()
        self.a_hat_read: set[int] = set()
        self.embed_keys: set[tuple[int, ...]] = set()
        self.embed_calls = 0

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def wrap(self, label, fn, label_of=None, after=None):
        """``fn`` recording one span per call; ``label_of(args)`` names it per call."""
        fixed = None if label_of else self._label_id(label)
        clock, stack = time.perf_counter, self._stack
        name, parent, start, end = self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(fixed if label_of is None else self._label_id(label_of(args)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- counters --------------------------------------------------------------

    def saw_a_hat(self, args, result) -> None:
        self.a_hat_built.add(self.serials.of(result))

    def saw_embed(self, args, result) -> None:
        a_hat, _, params = args[:3]
        key = (self.serials.of(a_hat),) + tuple(
            self.serials.of(params[p]) for p in ("w1", "b1", "w2", "b2"))
        self.embed_calls += 1
        self.embed_keys.add(key)
        self.a_hat_read.add(key[0])

    def save(self, path: str) -> None:
        counters = {
            "a_hat_built": len(self.a_hat_built),
            "a_hat_read": len(self.a_hat_read & self.a_hat_built),
            "embed_calls": self.embed_calls,
            "embed_distinct": len(self.embed_keys),
        }
        np.savez(path, labels=np.array(self.labels, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 counter_names=np.array(list(counters), dtype=str),
                 counter_values=np.array(list(counters.values()), dtype=np.int64))


def install(tracer: Tracer) -> None:
    """Wrap the public functions where the calling modules look them up."""
    import srr.cli as cli
    import srr.graphs as graphs
    import srr.models.gcn as gcn
    import srr.models.temporal as temporal
    import srr.tensor as tensor
    import srr.training as training

    def patch(module, attr, label, **kw):
        setattr(module, attr, tracer.wrap(label, getattr(module, attr), **kw))

    for attr, label in [
        ("ingest_csv", "market_data.ingest_csv"),
        ("read_features_csv", "features.read_features_csv"),
        ("compute_features", "features.compute_features"),
        ("attach_labels", "features.attach_labels"),
        ("write_features_csv", "features.write_features_csv"),
        ("build_snapshots", "graphs.build_snapshots"),
        ("write_snapshots_jsonl", "graphs.write_snapshots_jsonl"),
        ("read_snapshots_jsonl", "graphs.read_snapshots_jsonl"),
        ("serialize", "models.serialize"),
        ("deserialize", "models.deserialize"),
        ("compute_metrics", "evaluation.compute_metrics"),
        ("lead_times", "evaluation.lead_times"),
        ("roc_points", "evaluation.roc_points"),
        ("pr_points", "evaluation.pr_points"),
        ("line_chart", "plots.line_chart"),
        ("grouped_bar_chart", "plots.grouped_bar_chart"),
        ("hbar_chart", "plots.hbar_chart"),
    ]:
        patch(cli, attr, label)
    patch(cli, "train", None, label_of=lambda a: f"training.train.{a[0]}")
    patch(cli, "predict_scores", None,
          label_of=lambda a: f"training.predict_scores.{a[0].kind}")
    for stage in ("ingest", "features", "graphs", "train", "evaluate", "report"):
        patch(cli, f"cmd_{stage}", f"cli.{stage}")
        cli._COMMANDS[stage] = getattr(cli, f"cmd_{stage}")

    patch(graphs, "rank_correlation_matrix", "graphs.rank_correlation_matrix")
    patch(training, "adjacency_from_snapshot", "models.adjacency_from_snapshot")
    patch(training, "gcn_normalize", "models.gcn_normalize", after=tracer.saw_a_hat)
    for attr in ("gcn_forward", "gcn_backward", "temporal_forward", "temporal_backward",
                 "logistic_fit", "logistic_predict", "forest_fit", "forest_predict"):
        patch(training, attr, f"models.{attr}")
    patch(gcn, "gcn_embed", "models.gcn_embed", after=tracer.saw_embed)
    patch(temporal, "gcn_embed", "models.gcn_embed", after=tracer.saw_embed)
    patch(temporal, "gcn_embed_backward", "models.gcn_embed_backward")
    patch(gcn, "gcn_embed_backward", "models.gcn_embed_backward")
    patch(temporal, "gru_step", "models.gru_step")
    patch(temporal, "gru_step_backward", "models.gru_step_backward")
    for attr in ("matmul", "add", "adam_step", "bce_loss"):
        patch(tensor, attr, f"tensor.{attr}")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import srr.cli

    try:
        return srr.cli.main(argv)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
