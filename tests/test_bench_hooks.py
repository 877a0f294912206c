"""The benchmark under ``perfbench/`` times layers by replacing module and
class attributes of micerank from outside the package. These tests fail when
a refactor removes or renames an attribute it wraps, or stops calling a
function through the module attribute the benchmark replaces."""

from pathlib import Path

import numpy as np
import pytest

from micerank import masking, mice, training, transformer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CFG = transformer.ModelConfig(
    layers=3, hidden=8, heads=2, ff=12, vocab_size=40,
    max_query=4, max_doc=6, split_depth=1, interaction_layers=2,
)


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    return spans


@pytest.fixture
def tracer(spans):
    patches = spans.Patches()
    spans.Boundary(patches)
    tracer = spans.Tracer({})
    tracer.install(patches)
    yield tracer, patches
    patches.restore()


def test_every_hook_installs_and_restores(spans):
    patches = spans.Patches()
    originals = (mice.embed, mice.encoder_layer, mice.query_stream_mask,
                 transformer.build_mask, masking.build_mask)
    spans.Boundary(patches)
    spans.Tracer({}).install(patches)
    assert len(patches._saved) == 41
    assert mice.embed is not originals[0]
    patches.restore()
    assert (mice.embed, mice.encoder_layer, mice.query_stream_mask,
            transformer.build_mask, masking.build_mask) == originals


def test_scoring_runs_through_the_wrapped_attributes(tracer):
    tracer, _ = tracer
    mw = mice.init_mice_weights(CFG, seed=0)
    ce = transformer.init_ce_weights(CFG, seed=0)
    doc = mice.encode_document([5, 6, 7], mw, doc_id="d")
    mice.mice_score_batch([([8, 9], doc)], mw)
    spec = transformer.spec_for("3", ce.config)
    transformer.score_pairs([([8, 9], [5, 6, 7])], spec, ce)
    names = {span[0] for span in tracer.spans}
    assert {
        "mice.encode_document", "mice.score_batch", "mice.embed", "masking.stream_mask",
        "mice.lower.L1", "mice.inter.I1", "mice.inter.I2",
        "transformer.score_pairs", "transformer.embed", "masking.build_mask",
        "transformer.layer.L1", "transformer.layer.L3",
    } <= names
    assert tracer.count["flops.measured"] == pytest.approx(tracer.count["flops.expected"])
    assert np.isfinite(tracer.count["flops.measured"])


def test_validation_is_neither_a_step_nor_a_rerank(spans):
    """``desk-train`` times a step from its graph-building forward to
    ``Adam.step``, and declares ``retrieval.rerank`` absent: validating after
    each step must add no step and no rerank item, and a mid-fusion model is
    never scored by the cross-encoder forward."""
    patches = spans.Patches()
    boundary = spans.Boundary(patches)
    tracer = spans.Tracer({})
    tracer.install(patches)
    try:
        data = training.synth_corpus(seed=0, n_docs=12, n_queries=8, vocab_size=48)
        cfg = training.TrainConfig(
            steps=2, batch_size=2, warmup_steps=1, validate_every=1, variant="mice",
            layers=3, hidden=8, heads=2, ff=12, max_query=4, max_doc=6,
            split_depth=1, interaction_layers=2,
        )
        _, metrics = training.train_in_memory(cfg, data)
    finally:
        patches.restore()
    assert len(metrics) == 2
    assert len(boundary.items["step"]) == 2
    names = [span[0] for span in tracer.spans]
    assert names.count("training.validate") == 2
    assert not {"retrieval.rerank", "transformer.score_pairs"} & set(names)
