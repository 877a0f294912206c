"""Timers that wrap micerank's public functions from outside the package.

Two levels, both installed by replacing module (or class) attributes and
undone by :meth:`Patches.restore`:

* :class:`Boundary` -- the per-item timers every run carries: the first
  unit of work of each command (which ends its set-up) and the duration of
  each item (a query's BM25 call and rerank, one document encode, one
  training step).
* :class:`Tracer` -- the traced run only: one span per call of each layer's
  public functions, with name, start, end, parent span and item id, kept in
  memory and summarised when the run ends, plus counters taken at the same
  boundaries (candidates, cache gets, padding, analytic FLOPs).

A span's self time is its duration minus the time its child spans cover.
Everything is single-threaded: the commands run with ``--threads 1``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

from micerank import (checkpoint, doccache, evalbench, masking, mice, retrieval,
                      tensor, training, transformer)

perf = time.perf_counter


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Boundary:
    """Set-up end and per-item durations for the commands a round runs."""

    def __init__(self, patches: Patches):
        self.first = None  # start of the first unit of work of the current command
        self.items = defaultdict(list)  # item kind -> [seconds]
        self._step_start = None
        patches.wrap(retrieval, "bm25_retrieve", lambda fn: self._timed("bm25", fn))
        patches.wrap(retrieval, "rerank", lambda fn: self._timed("rerank", fn))
        patches.wrap(mice, "encode_document", lambda fn: self._timed("encode", fn))
        patches.wrap(training, "mice_train_scores", self._step_forward)
        patches.wrap(training.Adam, "step", self._step_end)

    def _timed(self, kind, fn):
        def wrapper(*args, **kwargs):
            t0 = perf()
            if self.first is None:
                self.first = t0
            try:
                return fn(*args, **kwargs)
            finally:
                self.items[kind].append(perf() - t0)
        return wrapper

    def _step_forward(self, fn):
        # A training step starts with a forward pass that builds a graph;
        # validation forwards run under no_grad and are not steps.
        def wrapper(*args, **kwargs):
            if tensor.grad_enabled():
                self._step_start = perf()
                if self.first is None:
                    self.first = self._step_start
            return fn(*args, **kwargs)
        return wrapper

    def _step_end(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.items["step"].append(perf() - self._step_start)
        return wrapper

    def command(self, argv: list) -> tuple[int, float, float]:
        """Run one CLI command; returns (exit code, set-up s, wall s)."""
        from micerank import cli

        self.first = None
        t0 = perf()
        code = cli.dispatch(argv)
        t1 = perf()
        return code, (self.first or t1) - t0, t1 - t0


def layer_flops(t: int, src: int, d: int, f: int, h: int) -> int:
    """FLOPs of one encoder layer, term by term as the evalbench docstring
    states them: ``t`` attending rows over ``src`` source rows."""
    macs = (2 * t + 2 * src) * d * d + 2 * t * src * d + 2 * t * d * f
    small = 4 * h * t * src + 2 * 8 * t * d + 10 * t * f + 2 * t * d
    return 2 * macs + small


class Tracer:
    """Spans and counters for the traced run."""

    def __init__(self, item_of_text: dict):
        self.spans = []  # [name, start, end, parent index, item id]
        self._stack = []
        self.count = defaultdict(float)
        self.flops = defaultdict(float)  # span name -> analytic FLOPs
        self.item = None
        self._item_of_text = item_of_text
        self._layer_name = {}  # id(LayerWeights) -> span name
        self._rows = []  # real rows per example of the stream being encoded
        self._q_rows = []
        self._d_rows = []
        self._in_score_batch = False
        self._seen_queries = set()
        self._seen_docs = set()
        self._step = 0
        self.peak_alloc_bytes = 0

    def install(self, patches: Patches) -> None:
        """Wrap every layer's public functions; ``patches.restore()`` undoes it."""
        w = lambda owner, attr, name, before=None, after=None: patches.wrap(  # noqa: E731
            owner, attr, lambda fn: self._span(name, fn, before, after))

        w(retrieval, "read_jsonl", "retrieval.read")
        w(retrieval, "read_trec_run", "retrieval.read")
        w(retrieval, "read_qrels", "retrieval.read")
        for owner in (retrieval, training):
            w(owner, "build_vocab", "retrieval.vocab")
        w(retrieval.Vocab, "encode", "retrieval.tokenize")
        w(retrieval, "build_corpus_stats", "retrieval.index")
        w(retrieval, "bm25_retrieve", "retrieval.bm25", self._bm25_item)
        w(retrieval, "rerank", "retrieval.rerank", self._rerank_item, self._rerank_done)
        w(retrieval, "write_trec_run", "retrieval.write")
        w(checkpoint, "load_weights", "checkpoint.load", self._load_bytes)
        for owner in (checkpoint, training):
            w(owner, "save_weights", "checkpoint.save")
        w(transformer, "build_mask", "masking.build_mask")
        for attr in ("query_stream_mask", "doc_stream_mask", "interaction_mask"):
            w(mice, attr, "masking.stream_mask")
        w(transformer, "score_pairs", "transformer.score_pairs", self._score_pairs)
        w(transformer, "embed", "transformer.embed", self._embed_ce)
        patches.wrap(transformer, "encoder_layer", self._layer)
        w(mice, "mice_score_batch", "mice.score_batch", self._score_batch, self._score_batch_done)
        w(mice, "encode_document", "mice.encode_document", self._encode_document)
        w(mice, "embed", "mice.embed", self._embed_mice)
        patches.wrap(mice, "encoder_layer", self._layer)
        w(doccache, "read_cache", "doccache.open")
        w(doccache.DocStateCache, "get", "doccache.get", after=self._cache_get)
        w(doccache, "write_cache", "doccache.write", after=self._cache_write)
        w(transformer, "matmul", "tensor.matmul", after=self._matmul)
        w(transformer, "masked_softmax", "tensor.softmax")
        w(transformer, "layernorm", "tensor.layernorm")
        w(transformer, "gelu", "tensor.gelu")
        w(tensor.Tensor, "backward", "tensor.backward")
        w(training, "mice_train_scores", "training.forward", self._train_forward)
        w(training.Adam, "step", "training.adam")
        w(training.SynthData, "teacher", "training.teacher")
        w(training, "evaluate_rr10", "training.validate")

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def command(self, boundary: Boundary, argv: list):
        """Run a CLI command under a root ``cli.dispatch`` span."""
        return self._span("cli.dispatch", boundary.command)(argv)

    # -- counters ----------------------------------------------------------

    def _bm25_item(self, query_text, *args, **kwargs):
        self.item = self._item_of_text.get(query_text, query_text)

    def _rerank_item(self, query_id, query_text, candidates, *args, **kwargs):
        self.item = query_id
        self.count["retrieval.candidates"] += len(candidates)

    def _rerank_done(self, ranking, *args, **kwargs):
        self.count["retrieval.skipped"] += len(ranking.skipped)

    def _load_bytes(self, path, *args, **kwargs):
        self.count["checkpoint.load_bytes"] += os.path.getsize(path)

    def _cache_get(self, state, cache, doc_id):
        self.count["doccache.get_bytes"] += state.states.nbytes
        if doc_id in self._seen_docs:
            self.count["doccache.repeat_gets"] += 1
        self._seen_docs.add(doc_id)

    def _cache_write(self, result, path, *args, **kwargs):
        self.count["doccache.write_bytes"] += os.path.getsize(path)

    def _matmul(self, out, a, b):
        self.count["tensor.matmul_flop"] += 2.0 * out.data.size * a.data.shape[-1]

    def _name_layers(self, stack, prefix, tag):
        for i, lw in enumerate(stack, start=1):
            self._layer_name[id(lw)] = f"{prefix}.{tag}{i}"

    def _expect(self, config, pairs, mode):
        """Add the analytic FLOPs evalbench.count_flops gives these pairs."""
        self.count["flops.expected"] += sum(
            evalbench.count_flops(config, n, m, mode) for n, m in pairs)
        self.count["flops.measured"] += len(pairs) * (2 * config.hidden + 1)  # score head

    def _score_pairs(self, pairs, spec, weights, depth=None):
        cfg = weights.config
        self._name_layers(weights.layers, "transformer.layer", "L")
        sizes = [(min(len(q), cfg.max_query), min(len(d), cfg.max_doc)) for q, d in pairs]
        rows = [n + m + 3 for n, m in sizes]
        self.count["transformer.rows"] += len(rows) * max(rows)
        self.count["transformer.pad_rows"] += len(rows) * max(rows) - sum(rows)
        if depth in (None, cfg.layers):
            self._expect(cfg, sizes, "ce")

    def _score_batch(self, items, weights):
        cfg = weights.config
        self._name_layers(weights.lower, "mice.lower", "L")
        self._name_layers(weights.interaction, "mice.inter", "I")
        q_rows = [min(len(q), cfg.max_query) + 2 for q, _ in items]
        self._d_rows = [doc.states.shape[0] for _, doc in items]
        padded = len(items) * (max(q_rows) + max(self._d_rows))
        self.count["mice.rows"] += padded
        self.count["mice.pad_rows"] += padded - sum(q_rows) - sum(self._d_rows)
        for q, _ in items:
            key = (self.item, tuple(q[: cfg.max_query]))
            if key not in self._seen_queries:
                self._seen_queries.add(key)
                self.count["mice.distinct_query_rows"] += len(key[1]) + 2
        self._expect(cfg, [(t - 2, sd - 1) for t, sd in zip(q_rows, self._d_rows)],
                     "mice-precomp")
        self._in_score_batch = True

    def _score_batch_done(self, *args, **kwargs):
        self._in_score_batch = False

    def _encode_document(self, doc_ids, weights, doc_id=""):
        cfg = weights.config
        self.item = doc_id
        self._name_layers(weights.lower, "mice.lower", "L")
        m = min(len(doc_ids), cfg.max_doc)
        self.count["flops.expected"] += (evalbench.count_flops(cfg, 1, m, "mice")
                                         - evalbench.count_flops(cfg, 1, m, "mice-precomp"))

    def _train_forward(self, pairs, weights):
        cfg = weights.config
        if tensor.grad_enabled():
            self._step += 1
            self.item = self._step
        self._name_layers(weights.lower, "mice.lower", "L")
        self._name_layers(weights.interaction, "mice.inter", "I")
        self._expect(cfg, [(min(len(q), cfg.max_query), min(len(d), cfg.max_doc))
                           for q, d in pairs], "mice")

    def _embed_rows(self, weights, token_ids):
        rows = (np.asarray(token_ids) != transformer.PAD_ID).sum(axis=1).tolist()
        self.count["flops.measured"] += sum(rows) * weights.config.hidden
        self._rows = rows
        return rows

    def _embed_ce(self, weights, token_ids, pos_ids):
        self._embed_rows(weights, token_ids)

    def _embed_mice(self, weights, token_ids, pos_ids):
        rows = self._embed_rows(weights, token_ids)
        if np.asarray(pos_ids)[0, 0] == 0:  # query streams start at position 0
            self._q_rows = rows
            if self._in_score_batch:
                self.count["mice.query_rows"] += sum(rows)
        else:
            self._d_rows = rows

    def _layer(self, fn):
        def wrapper(states, allow, lw, heads, kv_states=None):
            name = self._layer_name.get(id(lw), "unmapped.layer")
            d, f = states.shape[-1], lw.w1.data.shape[1]
            if kv_states is None:
                flops = sum(layer_flops(r, r, d, f, heads) for r in self._rows)
            else:
                flops = sum(layer_flops(t, t + sd, d, f, heads)
                            for t, sd in zip(self._q_rows, self._d_rows))
                if self._in_score_batch:
                    self.count["mice.kv_rows"] += sum(
                        t + sd for t, sd in zip(self._q_rows, self._d_rows))
            self.flops[name] += flops
            self.count["flops.measured"] += flops
            return self._span(name, fn)(states, allow, lw, heads, kv_states=kv_states)
        return wrapper

    # -- summary -----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, item in self.spans:
                f.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                    "parent": parent, "item": item}) + "\n")

    def totals(self):
        """{span name: [self s, inclusive s, calls]}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, start, end, _, _), covered in zip(self.spans, child):
            row = out[name]
            row[0] += end - start - covered
            row[1] += end - start
            row[2] += 1
        return out


# Per-layer metrics: (metric, unit, better). Additive values are reported
# per item (query, document or training step) so that runs of different
# lengths compare; ``*_ms`` is self time except the per-layer-index
# ``layer_ms`` entries, which include the tensor ops inside the layer.
SPANS = {
    "retrieval.read": "read", "retrieval.vocab": "vocab",
    "retrieval.tokenize": "tokenize", "retrieval.index": "index",
    "retrieval.bm25": "bm25", "retrieval.rerank": "rerank", "retrieval.write": "write",
    "checkpoint.load": "load", "checkpoint.save": "save",
    "masking.build_mask": "build_mask", "masking.stream_mask": "stream_mask",
    "transformer.score_pairs": "score_pairs", "transformer.embed": "embed",
    "mice.score_batch": "score_batch", "mice.encode_document": "encode_document",
    "mice.embed": "embed",
    "doccache.open": "open", "doccache.get": "get", "doccache.write": "write",
    "tensor.matmul": "matmul", "tensor.softmax": "softmax",
    "tensor.layernorm": "layernorm", "tensor.gelu": "gelu", "tensor.backward": "backward",
    "training.forward": "forward", "training.adam": "adam",
    "training.teacher": "teacher", "training.validate": "validate",
}
LAYERS = {
    "transformer.layer": ("L", 3, "layer_ms", "layer_calls", "layer_gflops"),
    "mice.lower": ("L", 4, "lower_layer_ms", "lower_calls", "lower_gflops"),
    "mice.inter": ("I", 3, "inter_layer_ms", "inter_calls", "inter_gflops"),
}
COUNTS = [
    ("retrieval.candidates", "count", "higher"),
    ("retrieval.skipped", "count", "lower"),
    ("checkpoint.load_mb", "MB", "lower"),
    ("transformer.pad_frac", "ratio", "lower"),
    ("mice.query_encodes_per_query", "ratio", "lower"),
    ("mice.kv_rows_per_query", "count", "lower"),
    ("mice.pad_frac", "ratio", "lower"),
    ("doccache.get_mb", "MB", "lower"),
    ("doccache.repeat_frac", "ratio", "higher"),
    ("doccache.write_mb", "MB", "lower"),
    ("tensor.matmul_gflop", "GFLOP", "lower"),
    ("tensor.peak_alloc_mb", "MB", "lower"),
    ("evalbench.flops_ratio", "ratio", "lower"),
    ("cli.unattributed_ms", "ms", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]


def per_layer_schema() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for span, short in SPANS.items():
        module = span.split(".")[0]
        out.append((f"{module}.{short}_ms", "ms", "lower"))
        out.append((f"{module}.{short}_calls", "count", "lower"))
    for module_layer, (tag, count, ms, calls, gflops) in LAYERS.items():
        module = module_layer.split(".")[0]
        for i in range(1, count + 1):
            out.append((f"{module}.{ms}.{tag}{i}", "ms", "lower"))
            out.append((f"{module}.{calls}.{tag}{i}", "count", "lower"))
            out.append((f"{module}.{gflops}.{tag}{i}", "GFLOP/s", "higher"))
    return out + COUNTS


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, items: int, overhead: float) -> dict:
    """Per-layer values keyed by metric name; see :func:`per_layer_schema`."""
    tot = tracer.totals()
    c = tracer.count
    mb = 1 << 20
    values = {}
    for span, short in SPANS.items():
        module = span.split(".")[0]
        self_s, _, calls = tot.get(span, (0.0, 0.0, 0))
        values[f"{module}.{short}_ms"] = self_s * 1e3 / items
        values[f"{module}.{short}_calls"] = calls / items
    for module_layer, (tag, count, ms, calls, gflops) in LAYERS.items():
        module = module_layer.split(".")[0]
        for i in range(1, count + 1):
            span = f"{module_layer}.{tag}{i}"
            _, incl, n = tot.get(span, (0.0, 0.0, 0))
            values[f"{module}.{ms}.{tag}{i}"] = incl * 1e3 / items
            values[f"{module}.{calls}.{tag}{i}"] = n / items
            values[f"{module}.{gflops}.{tag}{i}"] = _ratio(tracer.flops.get(span, 0.0) / 1e9, incl)
    queries = len({item for item, _ in tracer._seen_queries})
    values.update({
        "retrieval.candidates": c["retrieval.candidates"] / items,
        "retrieval.skipped": c["retrieval.skipped"] / items,
        "checkpoint.load_mb": c["checkpoint.load_bytes"] / mb / items,
        "transformer.pad_frac": _ratio(c["transformer.pad_rows"], c["transformer.rows"]),
        "mice.query_encodes_per_query": _ratio(c["mice.query_rows"],
                                               c["mice.distinct_query_rows"]),
        "mice.kv_rows_per_query": _ratio(c["mice.kv_rows"], queries),
        "mice.pad_frac": _ratio(c["mice.pad_rows"], c["mice.rows"]),
        "doccache.get_mb": c["doccache.get_bytes"] / mb / items,
        "doccache.repeat_frac": _ratio(c["doccache.repeat_gets"],
                                       tot.get("doccache.get", (0, 0, 0))[2]),
        "doccache.write_mb": c["doccache.write_bytes"] / mb / items,
        "tensor.matmul_gflop": c["tensor.matmul_flop"] / 1e9 / items,
        "tensor.peak_alloc_mb": tracer.peak_alloc_bytes / mb,
        "evalbench.flops_ratio": _ratio(c["flops.measured"], c["flops.expected"]),
        "cli.unattributed_ms": tot.get("cli.dispatch", (0.0, 0, 0))[0] * 1e3 / items,
        "trace_overhead_frac": overhead,
    })
    return values


def report(tracer: Tracer, items: int, absent: tuple) -> list:
    """Human-readable per-layer table (totals over the traced pass), the
    spans that must be absent on this workload, and the FLOP cross-check."""
    tot = tracer.totals()
    lines = [f"{'span':<28}{'self ms':>11}{'incl ms':>11}{'calls':>9}"
             f"{'GFLOP':>10}{'GFLOP/s':>9}"]
    for name in sorted(tot, key=lambda n: -tot[n][0]):
        self_s, incl, calls = tot[name]
        gflop = tracer.flops.get(name, 0.0) / 1e9
        rate = f"{gflop / incl:9.2f}" if gflop and incl else f"{'':>9}"
        gf = f"{gflop:10.3f}" if gflop else f"{'':>10}"
        lines.append(f"{name:<28}{self_s * 1e3:11.1f}{incl * 1e3:11.1f}{calls:9d}{gf}{rate}")
    rerank = tot.get("retrieval.rerank", (0.0, 0.0, 0))[1]
    if rerank:
        scoring = sum(tot.get(n, (0.0, 0.0, 0))[1]
                      for n in ("mice.score_batch", "transformer.score_pairs"))
        lines.append(f"mice.score_batch + transformer.score_pairs cover "
                     f"{scoring / rerank:.1%} of retrieval.rerank (inclusive)")
    for prefix in absent:
        seen = sorted(n for n in tot if n.startswith(prefix))
        lines.append(f"spans {prefix}* absent: {'yes' if not seen else 'NO, ' + ', '.join(seen)}")
    measured, expected = tracer.count["flops.measured"], tracer.count["flops.expected"]
    lines.append(f"analytic FLOPs summed per layer call {measured / 1e9:.4f} GFLOP vs "
                 f"evalbench.count_flops {expected / 1e9:.4f} GFLOP "
                 f"(ratio {_ratio(measured, expected):.6f}); {items} items traced")
    return lines
