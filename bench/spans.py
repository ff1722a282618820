"""Span recording from outside the program.

The program has no spans of its own yet, so the traced run wraps the names
that each module looks up in its own namespace (``lexjudge.trainer.adam_step``,
``lexjudge.clues.match_element``, ...) for the duration of a ``with
Tracer.install()`` block, and restores them afterwards. Spans are kept in
memory as (id, name, start, end, parent, root, tag) and written out when the
run ends; ``root`` is the outermost span, so all spans of one request share
it.

One wrapper stays on in untraced runs as well: ``trainer.extract_clues`` is
wrapped to record the provenance of every traced clue set, which the
correctness gates need (one extra Python call per case).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from pathlib import Path

import lexjudge.autodiff
import lexjudge.clues
import lexjudge.contrastive
import lexjudge.encoder
import lexjudge.trainer
from lexjudge.graph import LabelNode

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "root", "tag")

# (name, unit) of every per-layer metric, in report order. Times are total
# busy milliseconds over the traced run's fixed work, except the two
# per-epoch medians (contrastive.epoch_ms, trainer.graph_epoch_ms).
LAYER_METRICS = (
    ("clues.segment_ms", "ms"),
    ("clues.match_exact_ms", "ms"),
    ("clues.match_fuzzy_ms", "ms"),
    ("clues.match_miss_ms", "ms"),
    ("clues.exact_share", "ratio"),
    ("clues.fuzzy_share", "ratio"),
    ("clues.fallback_share", "ratio"),
    ("clues.windows_scored", "count"),
    ("clues.window_accept_ratio", "ratio"),
    ("encoder.featurize_ms", "ms"),
    ("encoder.featurize_calls", "count"),
    ("encoder.ngrams", "count"),
    ("encoder.project_ms", "ms"),
    ("predictor.score_ms", "ms"),
    ("predictor.proba_ms", "ms"),
    ("contrastive.epoch_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.init_features_ms", "ms"),
    ("graph.forward_ms", "ms"),
    ("graph.attention_export_ms", "ms"),
    ("autodiff.backward_contrastive_ms", "ms"),
    ("autodiff.backward_graph_ms", "ms"),
    ("trainer.adam_ms", "ms"),
    ("trainer.graph_epoch_ms", "ms"),
    ("trainer.divergences", "count"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.label_edge_share", "ratio"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("corpus.load_ms", "ms"),
    ("corpus.split_ms", "ms"),
    ("metrics.evaluate_ms", "ms"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.recording = enabled
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.clue_sets: list = []
        self._stack: list[tuple[int, str]] = []
        self._threshold = 1.0
        self._epoch_start: int | None = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int | None, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else None
        root = self._stack[0][0] if self._stack else sid
        self._stack.append((sid, name))
        return sid, parent, root

    def _close(self, opened: tuple, name: str, start: int, end: int, tag) -> None:
        self._stack.pop()
        sid, parent, root = opened
        self.spans[sid] = (sid, name, start, end, parent, root, tag)

    def _call(self, name: str, fn, args, kwargs, tag=None):
        if not self.recording:
            return fn(*args, **kwargs)
        opened = self._open(name)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(opened, name, start, time.perf_counter_ns(), "error")
            raise
        end = time.perf_counter_ns()
        self._close(opened, name, start, end, tag(result) if tag else None)
        return result

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        if not self.recording:
            yield
            return
        opened = self._open(name)
        start = time.perf_counter_ns()
        tag = None
        try:
            yield
        except BaseException:
            tag = "error"
            raise
        finally:
            self._close(opened, name, start, time.perf_counter_ns(), tag)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        recording, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = recording

    def _in(self, name: str) -> bool:
        return any(n == name for _, n in self._stack)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, tag=None):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, tag)

        return wrapper

    def _extract_clues(self, fn):
        def wrapper(*args, **kwargs):
            clues = self._call("clues.extract", fn, args, kwargs)
            self.clue_sets.append(clues)
            return clues

        return wrapper

    def _match_element(self, fn):
        def wrapper(*args, **kwargs):
            self._threshold = args[2] if len(args) > 2 else kwargs["threshold"]
            return self._call(
                "clues.match", fn, args, kwargs,
                lambda found: found.kind.value if found is not None else "miss",
            )

        return wrapper

    def _fuzzy_score(self, fn):
        def wrapper(a, b):
            score = fn(a, b)
            if not self.recording:
                return score
            self.counts["windows"] += 1
            if score >= self._threshold:
                self.counts["windows_accepted"] += 1
            return score

        return wrapper

    def _featurize(self, fn):
        def wrapper(text, params):
            if not self.recording:
                return fn(text, params)
            self.counts["featurize_calls"] += 1
            self.counts["ngrams"] += sum(
                max(0, len(text) - n + 1)
                for n in range(params.ngram_min, params.ngram_max + 1)
            )
            return self._call("encoder.featurize", fn, (text, params), {})

        return wrapper

    def _build_graph(self, fn):
        def tag(graph):
            labels = [isinstance(node, LabelNode) for node in graph.nodes]
            edges = len(graph.edge_src)
            self.gauges["graph.nodes"] = len(graph.nodes)
            self.gauges["graph.edges"] = edges
            self.gauges["graph.label_edge_share"] = (
                sum(1 for src in graph.edge_src if labels[src]) / edges
            )

        return self._timed("graph.build", fn, tag)

    def _graph_forward(self, fn):
        def wrapper(*args, **kwargs):
            if self._epoch_start is None:
                self._epoch_start = time.perf_counter_ns()
            return self._call("graph.forward", fn, args, kwargs)

        return wrapper

    def _adam_step(self, fn):
        def wrapper(*args, **kwargs):
            result = self._call("trainer.adam", fn, args, kwargs)
            if self._epoch_start is not None:
                # The graph epoch has no function of its own: it runs from the
                # epoch's forward pass to the end of its Adam step.
                end = time.perf_counter_ns()
                opened = self._open("trainer.graph_epoch")
                self._close(opened, "trainer.graph_epoch", self._epoch_start, end, None)
                self._epoch_start = None
            return result

        return wrapper

    def _backward(self, fn):
        def wrapper(tensor):
            stage = "contrastive" if self._in("contrastive.train") else "graph"
            return self._call("autodiff.backward", fn, (tensor,), {}, lambda _: stage)

        return wrapper

    def _patches(self) -> list[tuple[object, str, object]]:
        trainer, clues, encoder = lexjudge.trainer, lexjudge.clues, lexjudge.encoder
        contrastive = lexjudge.contrastive
        patches = [(trainer, "extract_clues", self._extract_clues(trainer.extract_clues))]
        if not self.enabled:
            return patches
        timed = [
            (clues, "segment_sections", "clues.segment"),
            (encoder, "project_features", "encoder.project"),
            (trainer, "score_case", "predictor.score"),
            (trainer, "predict_proba", "predictor.proba"),
            (trainer, "train_contrastive", "contrastive.train"),
            (contrastive, "contrastive_objective", "contrastive.epoch"),
            (trainer, "init_features", "graph.init_features"),
            (trainer, "attention_export", "graph.attention_export"),
            (trainer, "split", "corpus.split"),
            (trainer, "evaluate_model", "metrics.evaluate"),
            (trainer, "fit_model", "trainer.fit_model"),
        ]
        for module, attr, name in timed:
            patches.append((module, attr, self._timed(name, getattr(module, attr))))
        patches += [
            (clues, "match_element", self._match_element(clues.match_element)),
            (clues, "fuzzy_score", self._fuzzy_score(clues.fuzzy_score)),
            (encoder, "featurize", self._featurize(encoder.featurize)),
            (contrastive, "featurize", self._featurize(contrastive.featurize)),
            (trainer, "build_graph", self._build_graph(trainer.build_graph)),
            (trainer, "gat_forward_tensors", self._graph_forward(trainer.gat_forward_tensors)),
            (trainer, "adam_step", self._adam_step(trainer.adam_step)),
            (
                lexjudge.autodiff.Tensor, "backward",
                self._backward(lexjudge.autodiff.Tensor.backward),
            ),
        ]
        return patches

    @contextlib.contextmanager
    def install(self):
        """Wrap the program's names for the duration of the block."""
        patches = self._patches()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON lines: a header naming the fields, then one array
        per span."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """Every per-layer metric from the recorded spans and counts;
        ``extra`` supplies values measured by the benchmark itself."""
        per_call: dict[str, list[float]] = {}
        for _, name, start, end, _, _, tag in self.spans:
            key = f"{name}:{tag}" if tag else name
            per_call.setdefault(key, []).append((end - start) / 1e6)

        def ms(key):
            return float(sum(per_call.get(key, ())))

        def med(key):
            values = sorted(per_call.get(key, ()))
            return values[len(values) // 2] if values else 0.0

        matches = {
            kind: len(per_call.get(f"clues.match:{kind}", ())) for kind in ("exact", "fuzzy", "miss")
        }
        n_match = sum(matches.values())
        windows = self.counts["windows"]
        out = {
            "clues.segment_ms": ms("clues.segment"),
            "clues.match_exact_ms": ms("clues.match:exact"),
            "clues.match_fuzzy_ms": ms("clues.match:fuzzy"),
            "clues.match_miss_ms": ms("clues.match:miss"),
            "clues.exact_share": matches["exact"] / n_match if n_match else 0.0,
            "clues.fuzzy_share": matches["fuzzy"] / n_match if n_match else 0.0,
            "clues.fallback_share": matches["miss"] / n_match if n_match else 0.0,
            "clues.windows_scored": windows,
            "clues.window_accept_ratio": (
                self.counts["windows_accepted"] / windows if windows else 0.0
            ),
            "encoder.featurize_ms": ms("encoder.featurize"),
            "encoder.featurize_calls": self.counts["featurize_calls"],
            "encoder.ngrams": self.counts["ngrams"],
            "encoder.project_ms": ms("encoder.project"),
            "predictor.score_ms": ms("predictor.score"),
            "predictor.proba_ms": ms("predictor.proba"),
            "contrastive.epoch_ms": med("contrastive.epoch"),
            "graph.build_ms": ms("graph.build"),
            "graph.init_features_ms": ms("graph.init_features"),
            "graph.forward_ms": ms("graph.forward"),
            "graph.attention_export_ms": ms("graph.attention_export"),
            "autodiff.backward_contrastive_ms": ms("autodiff.backward:contrastive"),
            "autodiff.backward_graph_ms": ms("autodiff.backward:graph"),
            "trainer.adam_ms": ms("trainer.adam"),
            "trainer.graph_epoch_ms": med("trainer.graph_epoch"),
            "checkpoint.save_ms": ms("checkpoint.save"),
            "checkpoint.load_ms": ms("checkpoint.load"),
            "corpus.load_ms": ms("corpus.load"),
            "corpus.split_ms": ms("corpus.split"),
            "metrics.evaluate_ms": ms("metrics.evaluate"),
        }
        out.update(self.gauges)
        out.update(extra)
        return out
