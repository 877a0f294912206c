"""The checkpoint loader refuses ``meta.config`` values it cannot read
exactly: a non-integral kind or config field, and an unknown kind or masking
step code."""

import struct

import pytest

from micerank.checkpoint import (
    MAGIC,
    CheckpointFormatError,
    load_weights,
    serialize_weights,
)
from micerank.cli import dispatch
from micerank.masking import MaskStep
from micerank.transformer import ModelConfig, init_ce_weights

CONFIG = ModelConfig(
    layers=2, hidden=8, heads=2, ff=12, vocab_size=16, max_query=3, max_doc=4,
)
# meta.config: [kind, layers, hidden, heads, ff, vocab_size, max_query,
# max_doc, split_depth, interaction_layers, step_code]
META = [0.0, 2.0, 8.0, 2.0, 12.0, 16.0, 3.0, 4.0, 1.0, 0.0, -1.0]
# The file starts with the magic, the entry count (meta.config, four model
# tensors and ten per layer) and the meta.config entry: name length, name,
# rank 1, its one dim, then the 11 float32 values.
META_HEADER = (
    MAGIC + struct.pack("<I", 1 + 4 + 10 * CONFIG.layers)
    + struct.pack("<I", 11) + b"meta.config" + struct.pack("<II", 1, len(META))
)


def checkpoint_with_meta(path, meta):
    """A CE checkpoint of ``CONFIG`` whose ``meta.config`` holds ``meta``."""
    blob = serialize_weights(init_ce_weights(CONFIG, seed=0))
    assert blob.startswith(META_HEADER + struct.pack(f"<{len(META)}f", *META))
    body = blob[len(META_HEADER) + 4 * len(META):]
    path.write_bytes(META_HEADER + struct.pack(f"<{len(meta)}f", *meta) + body)
    return path


def test_hand_built_meta_loads(tmp_path):
    weights, step = load_weights(checkpoint_with_meta(tmp_path / "m.bin", META))
    assert weights.config == CONFIG
    assert step is MaskStep.BASELINE
    step3 = META[:-1] + [3.0]
    assert load_weights(checkpoint_with_meta(tmp_path / "s.bin", step3))[1] is MaskStep.STEP3


@pytest.mark.parametrize("field,index,value", [
    ("step_code", 10, 7.0),
    ("step_code", 10, 2.5),
    ("kind", 0, 0.5),
    ("layers", 1, 2.9),
    ("heads", 3, float("nan")),
])
def test_bad_meta_value_is_refused(tmp_path, field, index, value):
    meta = list(META)
    meta[index] = value
    path = checkpoint_with_meta(tmp_path / "bad.bin", meta)
    with pytest.raises(CheckpointFormatError, match=f"{field} = "):
        load_weights(path)


def test_bad_meta_is_a_data_error_naming_the_field(tmp_path, capsys):
    path = checkpoint_with_meta(tmp_path / "bad.bin", META[:-1] + [7.0])
    code = dispatch([
        "encode-docs", "--model", str(path), "--corpus", str(tmp_path / "corpus.jsonl"),
        "--out", str(tmp_path / "cache.bin"),
    ])
    assert code == 2
    assert "step_code" in capsys.readouterr().err
