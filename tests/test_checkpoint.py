"""The checkpoint loader refuses a header it cannot read (another magic, an
unknown kind or masking step code) and a header whose config disagrees with
a tensor's shape. Loading holds the weights once; the fingerprint is
streamed and lazy; a save is atomic. Both parameter sets round-trip with
their layer stacks, whose lengths and shapes construction checks against the
config."""

import builtins
import dataclasses
import errno
import hashlib
import io
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micerank import checkpoint
from micerank.checkpoint import (
    MAGIC,
    CheckpointFormatError,
    load_weights,
    save_weights,
    serialize_weights,
    weights_fingerprint,
)
from micerank.cli import dispatch
from micerank.masking import MaskStep
from micerank.mice import MiceWeights, from_cross_encoder, init_mice_weights
from micerank.tensor import Tensor
from micerank.transformer import (
    ModelConfig,
    Weights,
    init_ce_weights,
    score_pairs,
    spec_for,
)

CONFIG = ModelConfig(
    layers=2, hidden=8, heads=2, ff=12, vocab_size=16, max_query=3, max_doc=4,
)
# The fixed header: magic, kind, step code, the nine ModelConfig fields in
# declaration order, entry count.
HEADER = struct.Struct("<8sII9II")
FIELDS = ("kind", "step_code", "layers", "hidden", "heads", "ff", "vocab_size",
          "max_query", "max_doc", "split_depth", "interaction_layers", "count")
# CONFIG's cross-encoder at the baseline step: four model tensors and ten
# per layer.
VALUES = dict(zip(FIELDS, (0, 0, 2, 8, 2, 12, 16, 3, 4, 1, 0, 4 + 10 * CONFIG.layers)))


def checkpoint_with_header(path, **changes):
    """A CE checkpoint of ``CONFIG`` whose header holds ``changes`` in place
    of the true values."""
    blob = serialize_weights(init_ce_weights(CONFIG, seed=0))
    assert blob[:HEADER.size] == HEADER.pack(MAGIC, *VALUES.values())
    values = {**VALUES, **changes}
    path.write_bytes(HEADER.pack(MAGIC, *values.values()) + blob[HEADER.size:])
    return path


def test_hand_built_header_loads(tmp_path):
    weights, step = load_weights(checkpoint_with_header(tmp_path / "m.bin"))
    assert weights.config == CONFIG
    assert step is MaskStep.BASELINE
    step3 = checkpoint_with_header(tmp_path / "s.bin", step_code=4)
    assert load_weights(step3)[1] is MaskStep.STEP3


def test_format_one_is_refused_as_a_bad_magic(tmp_path):
    path = tmp_path / "v1.bin"
    path.write_bytes(b"MICEWTS1" + serialize_weights(init_ce_weights(CONFIG, seed=0))[8:])
    with pytest.raises(CheckpointFormatError, match="bad magic"):
        load_weights(path)


@pytest.mark.parametrize("code", [5, 2**32 - 1])
def test_unknown_step_code_is_refused(tmp_path, code):
    path = checkpoint_with_header(tmp_path / "bad.bin", step_code=code)
    with pytest.raises(CheckpointFormatError, match=f"step code {code} is not a masking step"):
        load_weights(path)


@pytest.mark.parametrize("kind", [2, 2**32 - 1])
def test_unknown_kind_is_refused(tmp_path, kind):
    path = checkpoint_with_header(tmp_path / "bad.bin", kind=kind)
    with pytest.raises(CheckpointFormatError, match=f"unknown model kind {kind}"):
        load_weights(path)


def checkpoint_with_extra_entry(path, name, extra):
    """A CE checkpoint of ``CONFIG`` with one more entry, ``name`` holding
    ``extra``, at the end (the entry count raised to match)."""
    blob = serialize_weights(init_ce_weights(CONFIG, seed=0))
    extra = np.asarray(extra, dtype="<f4")
    entry = (struct.pack(f"<I{len(name)}sI{extra.ndim}I", len(name), name.encode(), extra.ndim,
                         *extra.shape) + extra.tobytes())
    header = HEADER.pack(MAGIC, *{**VALUES, "count": VALUES["count"] + 1}.values())
    path.write_bytes(header + blob[HEADER.size:] + entry)
    return path


@pytest.mark.parametrize("name", ["layers.2.wq", "lower.0.wq", "meta.config", "meta.extra"])
def test_tensor_the_layout_does_not_name_is_refused(tmp_path, name):
    """A 2-layer CE with one more entry does not load as a 2-layer model."""
    extra = np.zeros((CONFIG.hidden, CONFIG.hidden))
    path = checkpoint_with_extra_entry(tmp_path / "extra.bin", name, extra)
    with pytest.raises(CheckpointFormatError, match=f"unknown tensor '{name}'"):
        load_weights(path)


@pytest.mark.parametrize("name,extra", [("score_b", [7.0]), ("token_emb", np.zeros((16, 8)))])
def test_tensor_named_twice_is_refused(tmp_path, name, extra):
    """A second entry of one name does not replace the first."""
    path = checkpoint_with_extra_entry(tmp_path / "twice.bin", name, extra)
    message = f"{path}: tensor '{name}' appears twice"
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        load_weights(path)


def test_bad_header_is_a_data_error_naming_the_field(tmp_path, capsys):
    path = checkpoint_with_header(tmp_path / "bad.bin", step_code=7)
    code = dispatch([
        "encode-docs", "--model", str(path), "--corpus", str(tmp_path / "corpus.jsonl"),
        "--out", str(tmp_path / "cache.bin"),
    ])
    assert code == 2
    assert "step code 7" in capsys.readouterr().err


# Each config field the header can contradict, the first tensor whose shape
# then disagrees, and that tensor's shape in CONFIG and under the header.
DISAGREEMENTS = [
    ("ff", 99, "layers.0.w1", (8, 12), (8, 99)),
    ("vocab_size", 1000, "token_emb", (16, 8), (1000, 8)),
    ("hidden", 16, "token_emb", (16, 8), (16, 16)),
    ("max_doc", 5, "pos_emb", (10, 8), (11, 8)),
]


@pytest.mark.parametrize("field,value,tensor,shape,given", DISAGREEMENTS)
def test_header_disagreeing_with_a_tensor_is_refused(tmp_path, field, value, tensor, shape,
                                                     given):
    path = checkpoint_with_header(tmp_path / "bad.bin", **{field: value})
    message = f"{path}: {tensor} has shape {shape}; the config gives {given}"
    with pytest.raises(CheckpointFormatError, match=f"^{re.escape(message)}$"):
        load_weights(path)


@pytest.mark.parametrize("field,value,tensor,shape,given", DISAGREEMENTS)
def test_config_disagreeing_with_a_tensor_is_refused(field, value, tensor, shape, given):
    """Construction checks every shape, so a copy with another config fails."""
    weights = init_ce_weights(CONFIG, seed=0)
    with pytest.raises(ValueError, match=re.escape(f"{tensor} has shape {shape}")):
        dataclasses.replace(weights, config=dataclasses.replace(CONFIG, **{field: value}))


def test_depth_other_than_the_layers_held_is_refused(tmp_path):
    """A mid-fusion config's ``layers`` counts its lower and interaction
    layers, in a header and in a copy alike."""
    weights = init_mice_weights(dataclasses.replace(CONFIG, interaction_layers=1), seed=0)
    deeper = dataclasses.replace(weights.config, layers=3)
    with pytest.raises(ValueError, match="^stacks hold 2 layers; config.layers is 3$"):
        dataclasses.replace(weights, config=deeper)
    blob = serialize_weights(weights)
    values = dict(zip(FIELDS, HEADER.unpack(blob[:HEADER.size])[1:]))
    path = tmp_path / "deep.bin"
    path.write_bytes(HEADER.pack(MAGIC, *{**values, "layers": 3}.values()) + blob[HEADER.size:])
    message = f"{path}: stacks hold 2 layers; config.layers is 3"
    with pytest.raises(CheckpointFormatError, match=f"^{re.escape(message)}$"):
        load_weights(path)


# A CE checkpoint of about 8 MiB: big enough that the loader's own small
# objects are noise beside the payloads.
LARGE = ModelConfig(
    layers=2, hidden=256, heads=4, ff=1024, vocab_size=2048, max_query=8, max_doc=64,
)


@pytest.mark.parametrize("dtype,bound", [
    (np.float32, 1.1),
    # the float64 weights are twice the file; one float32 payload (at most
    # the 2 MiB token embedding) is alive beside them while it converts
    (np.float64, 2.4),
])
def test_load_holds_the_weights_once(tmp_path, dtype, bound):
    """Payloads are read straight into the parameter arrays: no file image,
    no per-entry copies and no serialization for the fingerprint."""
    path = tmp_path / "large.bin"
    save_weights(path, init_ce_weights(LARGE, seed=0))
    size = path.stat().st_size
    assert size > 6 * 2**20
    tracemalloc.start()
    try:
        weights, _ = load_weights(path, dtype=dtype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * size, f"peak {peak} for a {size}-byte file"
    assert weights.token_emb.data.dtype == dtype


def test_load_leaves_the_fingerprint_until_asked(tmp_path, monkeypatch):
    path = tmp_path / "m.bin"
    save_weights(path, init_ce_weights(CONFIG, seed=0))
    calls = []
    monkeypatch.setattr(checkpoint, "weights_fingerprint",
                        lambda w: calls.append(w) or b"\0" * 32)
    weights, _ = load_weights(path)
    assert calls == []
    assert weights.fingerprint() == b"\0" * 32
    assert calls == [weights]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("step", list(MaskStep))
def test_streamed_fingerprint_hashes_the_canonical_serialization(tmp_path, dtype, step):
    weights = init_ce_weights(CONFIG, seed=1)
    path = tmp_path / "m.bin"
    save_weights(path, weights, step=step)
    loaded, loaded_step = load_weights(path, dtype=dtype)
    assert loaded_step is step
    canonical = hashlib.sha256(serialize_weights(loaded, MaskStep.BASELINE)).digest()
    assert weights_fingerprint(loaded) == canonical
    assert weights_fingerprint(weights) == canonical
    if step is MaskStep.BASELINE:
        assert canonical == hashlib.sha256(path.read_bytes()).digest()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_save_writes_the_serialization(tmp_path, dtype):
    ce = init_ce_weights(CONFIG, seed=2, dtype=dtype)
    for weights, step in [(ce, MaskStep.STEP2), (from_cross_encoder(ce, 1, 1), MaskStep.BASELINE)]:
        path = tmp_path / "m.bin"
        save_weights(path, weights, step=step)
        assert path.read_bytes() == serialize_weights(weights, step)



@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_weights_stored_column_major_save_the_same_bytes(tmp_path, dtype):
    """A forward re-lays the wide layer weights column-major; the
    checkpoint bytes and the fingerprint do not see the layout."""
    wide = ModelConfig(layers=2, hidden=256, heads=4, ff=1024, vocab_size=16,
                       max_query=3, max_doc=4)
    save_weights(tmp_path / "before.bin", init_ce_weights(wide, seed=3))
    weights, _ = load_weights(tmp_path / "before.bin", dtype=dtype)
    digest = weights.fingerprint()
    score_pairs([([1, 2], [3, 4, 5]), ([6], [7, 8])], spec_for(MaskStep.BASELINE, wide), weights)
    layer = weights.layers[0]
    assert all(w.data.flags.f_contiguous and not w.data.flags.c_contiguous
               for w in (layer.wq, layer.wk, layer.wv, layer.wo, layer.w1, layer.w2))
    save_weights(tmp_path / "after.bin", weights)
    before = (tmp_path / "before.bin").read_bytes()
    assert (tmp_path / "after.bin").read_bytes() == before
    assert weights_fingerprint(weights) == digest == hashlib.sha256(before).digest()
    assert weights.fingerprint() == digest


class _DiskFillsUp:
    """A binary file that takes ``budget`` bytes, then fails as a full disk does."""

    def __init__(self, file, budget: int):
        self.file = file
        self.budget = budget

    def write(self, data) -> int:
        data = memoryview(data).cast("B")
        if len(data) > self.budget:
            self.file.write(data[: self.budget])
            self.budget = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.file.write(data)

    def close(self) -> None:
        self.file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    """A save that dies half-way through writing leaves the old file whole."""
    path = tmp_path / "model.bin"
    save_weights(path, init_ce_weights(CONFIG, seed=0))
    before = path.read_bytes()
    real_open = io.open

    def open_filling_up(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        writing = "w" in mode or "x" in mode
        return _DiskFillsUp(handle, len(before) // 2) if writing else handle

    monkeypatch.setattr(io, "open", open_filling_up)
    monkeypatch.setattr(builtins, "open", open_filling_up)
    with pytest.raises(OSError, match="No space left"):
        save_weights(path, init_ce_weights(CONFIG, seed=1))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_save_gives_the_file_the_umask_permissions(tmp_path):
    umask = os.umask(0o022)
    os.umask(umask)
    path = tmp_path / "model.bin"
    save_weights(path, init_ce_weights(CONFIG, seed=0))
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


# Each parameter set's layer stacks and the config field counting each one,
# written out independently of the classes' own STACKS.
LAYOUTS = {
    Weights: (init_ce_weights, {"layers": "layers"}),
    MiceWeights: (init_mice_weights, {"lower": "split_depth", "interaction": "interaction_layers"}),
}


@st.composite
def small_configs(draw):
    split, inter = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    heads = draw(st.integers(1, 2))
    return ModelConfig(
        layers=split + inter + draw(st.integers(0, 1)), hidden=2 * heads, heads=heads,
        ff=draw(st.integers(1, 6)), vocab_size=draw(st.integers(5, 9)),
        max_query=draw(st.integers(1, 3)), max_doc=draw(st.integers(1, 3)),
        split_depth=split, interaction_layers=inter,
    )


@settings(max_examples=30, deadline=None)
@given(config=small_configs(), cls=st.sampled_from(list(LAYOUTS)), seed=st.integers(0, 99))
def test_round_trip_keeps_class_names_and_fingerprint(tmp_path_factory, config, cls, seed):
    init, _ = LAYOUTS[cls]
    weights = init(config, seed=seed)
    path = tmp_path_factory.mktemp("round") / "model.bin"
    save_weights(path, weights)
    back, _ = load_weights(path)
    assert type(back) is cls
    assert [n for n, _ in back.named_parameters()] == [n for n, _ in weights.named_parameters()]
    assert back.fingerprint() == weights.fingerprint()


@pytest.mark.parametrize("cls", list(LAYOUTS))
def test_a_copy_fingerprints_its_own_tensors(cls):
    """The digest ``fingerprint`` caches is not a field, so a copy made
    with ``dataclasses.replace`` hashes the tensors it holds."""
    init, _ = LAYOUTS[cls]
    weights = init(dataclasses.replace(CONFIG, interaction_layers=1), seed=0)
    before = weights.fingerprint()
    copy = dataclasses.replace(weights, score_b=Tensor(weights.score_b.data + 1))
    assert copy.fingerprint() == weights_fingerprint(copy) != before
    assert weights.fingerprint() == before


@pytest.mark.parametrize("cls", list(LAYOUTS))
def test_fingerprint_is_not_a_constructor_argument(cls):
    init, _ = LAYOUTS[cls]
    weights = init(dataclasses.replace(CONFIG, interaction_layers=1), seed=0)
    with pytest.raises(TypeError, match="_fingerprint"):
        dataclasses.replace(weights, _fingerprint=b"\0" * 32)


@settings(max_examples=30, deadline=None)
@given(config=small_configs(), cls=st.sampled_from(list(LAYOUTS)), delta=st.sampled_from([-1, 1]))
def test_stack_of_the_wrong_length_is_refused(config, cls, delta):
    init, stacks = LAYOUTS[cls]
    weights = init(config, seed=0)
    fields = {f.name: getattr(weights, f.name) for f in dataclasses.fields(weights)}
    for stack, count in stacks.items():
        layers = getattr(weights, stack)
        if delta < 0:
            changed = layers[:-1]
        else:
            changed = [*layers, layers[0]]
        with pytest.raises(ValueError, match=f"^{stack} holds {len(changed)} layers; "
                                             f"config.{count} is {len(layers)}$"):
            cls(**{**fields, stack: changed})


@settings(max_examples=30, deadline=None)
@given(config=small_configs(), cls=st.sampled_from(list(LAYOUTS)), seed=st.integers(0, 99))
def test_assemble_takes_each_name_named_parameters_yields(config, cls, seed):
    """Building by name is the inverse of listing by name: the same names in
    the same order, each asked for once, holding the same arrays."""
    init, _ = LAYOUTS[cls]
    weights = init(config, seed=seed)
    tensors = dict(weights.named_parameters())
    asked = []

    def take(name):
        asked.append(name)
        return tensors[name]

    back = cls.assemble(weights.config, take)
    assert type(back) is cls
    assert asked == list(tensors)
    assert [name for name, _ in back.named_parameters()] == asked
    assert all(t is tensors[name] for name, t in back.named_parameters())
