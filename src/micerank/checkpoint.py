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
"""

from __future__ import annotations

import hashlib
import io
import struct
from pathlib import Path

import numpy as np

from .masking import MaskStep
from .mice import MiceWeights
from .tensor import Tensor
from .transformer import LayerWeights, ModelConfig, Weights

__all__ = [
    "MAGIC",
    "CheckpointFormatError",
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


def _write_entry(buf, name: str, payload: np.ndarray) -> None:
    raw = name.encode("utf-8")
    buf.write(struct.pack("<I", len(raw)))
    buf.write(raw)
    buf.write(struct.pack("<I", payload.ndim))
    buf.write(struct.pack(f"<{payload.ndim}I", *payload.shape))
    buf.write(np.ascontiguousarray(payload, dtype="<f4").tobytes())


def serialize_weights(weights, step: MaskStep = MaskStep.BASELINE) -> bytes:
    """Deterministic byte serialization (also the fingerprint input)."""
    entries = [("meta.config", _meta_vector(weights, step))]
    entries += [(name, t.data) for name, t in weights.named_parameters()]
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", len(entries)))
    for name, payload in entries:
        _write_entry(buf, name, payload)
    return buf.getvalue()


def weights_fingerprint(weights) -> bytes:
    """32-byte digest identifying a parameter set.

    Computed over the canonical serialization (f32 payloads, baseline step
    code), so it is invariant to the load precision and to the masking step
    recorded in the file. For a checkpoint saved with the baseline step the
    digest coincides with the sha256 of the file bytes.
    """
    return hashlib.sha256(serialize_weights(weights, MaskStep.BASELINE)).digest()


def save_weights(path, weights, step: MaskStep = MaskStep.BASELINE) -> None:
    """Write a checkpoint; ``step`` records the mask the model was trained with."""
    Path(path).write_bytes(serialize_weights(weights, step))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.off + count > len(self.blob):
            raise CheckpointFormatError(f"truncated checkpoint {self.path}")
        chunk = self.blob[self.off : self.off + count]
        self.off += count
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _read_entries(path) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    r = _Reader(blob, path)
    if r.take(8) != MAGIC:
        raise CheckpointFormatError(f"{path} is not a weights checkpoint (bad magic)")
    count = r.u32()
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = r.take(r.u32()).decode("utf-8")
        rank = r.u32()
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        size = int(np.prod(dims)) if dims else 1
        payload = np.frombuffer(r.take(4 * size), dtype="<f4").reshape(dims)
        entries[name] = payload
    if r.off != len(blob):
        raise CheckpointFormatError(f"{path} has {len(blob) - r.off} trailing bytes")
    return entries


def _param(entries: dict, name: str, dtype) -> Tensor:
    try:
        payload = entries[name]
    except KeyError:
        raise CheckpointFormatError(f"checkpoint is missing tensor {name!r}") from None
    return Tensor(payload.astype(dtype), requires_grad=True)


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
    weights._fingerprint = weights_fingerprint(weights)
    return weights, step
