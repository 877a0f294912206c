"""Binary checkpoint format for model weights.

Layout (all integers little-endian):

* magic ``MICEWTS1`` (8 bytes)
* entry count, u32
* per entry: name length u32, name (utf-8), rank u32, ``rank`` dims each
  u32, then the payload as 32-bit little-endian floats, row-major.

Tensor names mirror the parameter lists of :class:`.transformer.Weights`
(``token_emb``, ``pos_emb``, ``layers.{i}.wq`` ...) and
:class:`.mice.MiceWeights` (``lower.{i}.*``, ``interaction.{i}.*``). One
reserved entry, ``meta.config``, stores the architecture description and
model kind as a small float vector so a checkpoint is self-describing:

``[kind, layers, hidden, heads, ff, vocab_size, max_query, max_doc,
split_depth, interaction_layers, step_code]``

where ``kind`` is 0 for a cross-encoder and 1 for the mid-fusion model, and
``step_code`` records the masking step the cross-encoder was trained with
(-1 baseline, 0..3 for the ablation steps; unused for mid-fusion). Every
value must be integral, and the loader refuses a kind or step code it does
not know.

Payloads are stored in 32 bits regardless of compute precision; a float64
model round-trips through its float32 projection.

Loading reads the file in one pass: each entry's header, then its payload
straight into a fresh float32 array, which a float32 load keeps as the
parameter itself. So a load holds the weights once, not as a file image plus
copies. One writer produces the canonical byte stream, entry by entry, for
:func:`save_weights`, :func:`serialize_weights` and
:func:`weights_fingerprint`; the fingerprint hashes that stream as it goes
and is computed only when first asked for. :func:`save_weights` writes a
temporary file beside the target and renames it over the target, so a
failed save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import struct
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .masking import MaskStep
from .mice import MiceWeights
from .tensor import Tensor
from .transformer import LayerWeights, ModelConfig, Weights

__all__ = [
    "MAGIC",
    "CheckpointFormatError",
    "atomic_output",
    "save_weights",
    "load_weights",
    "serialize_weights",
    "weights_fingerprint",
]

MAGIC = b"MICEWTS1"

_STEP_CODES = {
    MaskStep.BASELINE: -1.0,
    MaskStep.STEP0: 0.0,
    MaskStep.STEP1: 1.0,
    MaskStep.STEP2: 2.0,
    MaskStep.STEP3: 3.0,
}
_CODE_STEPS = {v: k for k, v in _STEP_CODES.items()}


class CheckpointFormatError(ValueError):
    """The file is not a valid weights checkpoint."""


# The ModelConfig fields ``meta.config`` stores between kind and step code,
# in file order.
_CONFIG_FIELDS = (
    "layers", "hidden", "heads", "ff", "vocab_size",
    "max_query", "max_doc", "split_depth", "interaction_layers",
)


def _meta_vector(weights, step: MaskStep) -> np.ndarray:
    kind = 1.0 if isinstance(weights, MiceWeights) else 0.0
    config = [getattr(weights.config, name) for name in _CONFIG_FIELDS]
    for name, value in zip(_CONFIG_FIELDS, config):
        if abs(value) >= 2**24:
            raise ValueError(
                f"config.{name} = {value} cannot be stored exactly in the float32 "
                f"checkpoint metadata (must be below 2**24)"
            )
    return np.array([kind, *config, _STEP_CODES[step]], dtype=np.float32)


def _write_canonical(write, weights, step: MaskStep) -> None:
    """Feed the checkpoint bytes of ``weights`` to ``write``, one entry at a
    time: the single writer behind the file, the serialization and the
    fingerprint. Contiguous float32 payloads go out as views, uncopied."""
    entries = [("meta.config", _meta_vector(weights, step))]
    entries += [(name, t.data) for name, t in weights.named_parameters()]
    write(MAGIC)
    write(struct.pack("<I", len(entries)))
    for name, payload in entries:
        raw = name.encode("utf-8")
        write(struct.pack(
            f"<I{len(raw)}sI{payload.ndim}I", len(raw), raw, payload.ndim, *payload.shape
        ))
        write(memoryview(np.ascontiguousarray(payload, dtype="<f4")).cast("B"))


def serialize_weights(weights, step: MaskStep = MaskStep.BASELINE) -> bytes:
    """Deterministic byte serialization: the bytes :func:`save_weights` writes."""
    buf = io.BytesIO()
    _write_canonical(buf.write, weights, step)
    return buf.getvalue()


def weights_fingerprint(weights) -> bytes:
    """32-byte digest identifying a parameter set.

    Computed over the canonical serialization (f32 payloads, baseline step
    code), so it is invariant to the load precision and to the masking step
    recorded in the file. For a checkpoint saved with the baseline step the
    digest coincides with the sha256 of the file bytes. The bytes are hashed
    as they are produced; no serialization is built.
    """
    digest = hashlib.sha256()
    _write_canonical(digest.update, weights, MaskStep.BASELINE)
    return digest.digest()


@contextmanager
def atomic_output(path):
    """Open a temporary file next to ``path`` for binary writing. When the
    block ends normally it replaces ``path``; on any error it is removed,
    leaving ``path`` as it was."""
    path = Path(path)
    # An exclusive create, not mkstemp: the file gets the umask's permissions.
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_weights(path, weights, step: MaskStep = MaskStep.BASELINE) -> None:
    """Write a checkpoint; ``step`` records the mask the model was trained with."""
    with atomic_output(path) as out:
        _write_canonical(out.write, weights, step)


class _Reader:
    """Sequential reads from an open binary file, each checked against the
    file size before anything is allocated for it; a read past the end
    raises ``error``. Checkpoints and document caches read through it."""

    def __init__(self, file, path, error=CheckpointFormatError):
        self.file = file
        self.size = os.fstat(file.fileno()).st_size
        self.off = 0
        self.path = path
        self.error = error

    def _claim(self, count: int) -> None:
        if self.off + count > self.size:
            raise self.error(f"truncated file {self.path}")
        self.off += count

    def take(self, count: int) -> bytes:
        self._claim(count)
        return self.file.read(count)

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def floats(self, dims) -> np.ndarray:
        """The next payload of shape ``dims``, read straight into a fresh array."""
        self._claim(4 * math.prod(dims))
        payload = np.empty(dims, dtype="<f4")
        if self.file.readinto(payload) != payload.nbytes:  # the file shrank
            raise self.error(f"truncated file {self.path}")
        return payload


def _read_entries(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as file:
        r = _Reader(file, path)
        if r.take(8) != MAGIC:
            raise CheckpointFormatError(f"{path} is not a weights checkpoint (bad magic)")
        count = r.u32()
        entries: dict[str, np.ndarray] = {}
        for _ in range(count):
            name = r.take(r.u32()).decode("utf-8")
            rank = r.u32()
            entries[name] = r.floats(struct.unpack(f"<{rank}I", r.take(4 * rank)))
    if r.off != r.size:
        raise CheckpointFormatError(f"{path} has {r.size - r.off} trailing bytes")
    return entries


def _param(entries: dict, name: str, dtype) -> Tensor:
    """Take the payload out of ``entries``, so that a float64 load frees each
    float32 payload as it converts it."""
    try:
        payload = entries.pop(name)
    except KeyError:
        raise CheckpointFormatError(f"checkpoint is missing tensor {name!r}") from None
    return Tensor(payload.astype(dtype, copy=False), requires_grad=True)


def _layer(entries: dict, prefix: str, dtype) -> LayerWeights:
    return LayerWeights(
        **{name: _param(entries, f"{prefix}.{name}", dtype) for name in LayerWeights.FIELDS}
    )


def load_weights(path, dtype=np.float32):
    """Load a checkpoint; returns ``(weights, step)``.

    ``weights`` is a :class:`.transformer.Weights` or
    :class:`.mice.MiceWeights` depending on the stored kind; ``step`` is the
    masking step recorded at save time.
    """
    dtype = np.dtype(dtype)
    entries = _read_entries(path)
    meta = entries.get("meta.config")
    if meta is None or meta.shape != (len(_CONFIG_FIELDS) + 2,):
        raise CheckpointFormatError(f"{path} lacks a valid meta.config entry")
    for name, value in zip(("kind", *_CONFIG_FIELDS, "step_code"), meta):
        if not float(value).is_integer():
            raise CheckpointFormatError(f"{path}: meta.config {name} = {value} is not an integer")
    kind = int(meta[0])
    if kind not in (0, 1):
        raise CheckpointFormatError(f"unknown model kind {kind} in {path}")
    if float(meta[-1]) not in _CODE_STEPS:
        raise CheckpointFormatError(
            f"{path}: meta.config step_code = {meta[-1]} is not a masking step"
        )
    config = ModelConfig(**{name: int(v) for name, v in zip(_CONFIG_FIELDS, meta[1:-1])})
    step = _CODE_STEPS[float(meta[-1])]
    common = {
        name: _param(entries, name, dtype)
        for name in ("token_emb", "pos_emb", "score_w", "score_b")
    }
    if kind == 0:
        layers = [_layer(entries, f"layers.{i}", dtype) for i in range(config.layers)]
        weights = Weights(config=config, layers=layers, **common)
    else:
        weights = MiceWeights(
            config=config,
            lower=[_layer(entries, f"lower.{i}", dtype) for i in range(config.split_depth)],
            interaction=[
                _layer(entries, f"interaction.{i}", dtype)
                for i in range(config.interaction_layers)
            ],
            **common,
        )
    return weights, step
