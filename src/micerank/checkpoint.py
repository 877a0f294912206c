"""Binary checkpoint format for model weights.

Layout (all integers little-endian):

* a fixed header: magic ``MICEWTS2`` (8 bytes); the kind, u32, the
  parameter set's index in ``_KINDS`` (0 for a cross-encoder, 1 for the
  mid-fusion model); the step code, u32, the index in ``tuple(MaskStep)`` of
  the masking step the model was trained with (0 for the baseline); the nine
  :class:`.transformer.ModelConfig` fields, each u32, in declaration order;
  the entry count, u32
* per entry: name length u32, name (utf-8), rank u32, ``rank`` dims each
  u32, then the payload as 32-bit little-endian floats, row-major.

Tensor names follow ``named_parameters``: ``token_emb``, ``pos_emb``, then
``{stack}.{i}.{field}`` for each layer stack in the ``STACKS`` order of the
parameter set (``layers`` for :class:`.transformer.Weights`; ``lower`` and
``interaction`` for :class:`.mice.MiceWeights`), then ``score_w`` and
``score_b``. The header states the config once; the tensors' shapes, and
the number of layers the file holds, must agree with it, which the
parameter set checks as it is built, so a file whose header and tensors
disagree does not load. The loader builds the parameter set with
``assemble``, which asks for each tensor by its name, so it takes each
entry by name, not by position. It refuses another magic (a
``MICEWTS1`` file too: that float-metadata format is no longer read), a kind
or step code it does not know, a missing entry, a name that appears twice,
and any entry the parameter set does not name.

Payloads are stored in 32 bits regardless of compute precision; a float64
model round-trips through its float32 projection.

Loading reads the file in one pass: each entry's header, then its payload
straight into a fresh float32 array, which a float32 load keeps as the
parameter itself. So a load holds the weights once, not as a file image plus
copies. One writer produces the canonical byte stream, entry by entry, for
:func:`save_weights`, :func:`serialize_weights` and
:func:`weights_fingerprint`; the fingerprint hashes that stream, with the
baseline step code, as it goes and is computed only when first asked for, so
it equals the sha256 of a file saved at the baseline step.
:func:`save_weights` writes a temporary file beside the target and renames
it over the target, so a failed save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import dataclasses
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
from .transformer import ModelConfig, Weights

__all__ = [
    "MAGIC",
    "CheckpointFormatError",
    "atomic_output",
    "save_weights",
    "load_weights",
    "serialize_weights",
    "weights_fingerprint",
]

MAGIC = b"MICEWTS2"

# The parameter-set classes and the masking steps; a checkpoint's kind and
# step codes are indices into these.
_KINDS = (Weights, MiceWeights)
_STEPS = tuple(MaskStep)

# magic, kind, step code, the ModelConfig fields in declaration order, entry count
_HEADER = struct.Struct(f"<8sII{len(dataclasses.fields(ModelConfig))}II")


class CheckpointFormatError(ValueError):
    """The file is not a valid weights checkpoint."""


def _write_canonical(write, weights, step: MaskStep) -> None:
    """Feed the checkpoint bytes of ``weights`` to ``write``, one entry at a
    time: the single writer behind the file, the serialization and the
    fingerprint. Contiguous float32 payloads go out as views, uncopied."""
    entries = list(weights.named_parameters())
    write(_HEADER.pack(MAGIC, _KINDS.index(type(weights)), _STEPS.index(step),
                       *dataclasses.astuple(weights.config), len(entries)))
    for name, tensor in entries:
        raw, payload = name.encode("utf-8"), tensor.data
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

    def name(self, what: str) -> str:
        """The next u32 length and that many bytes of UTF-8, the ``what`` of an entry."""
        start = self.off + 4
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{self.path}: {what} at byte {start} is not UTF-8") from None

    def floats(self, dims) -> np.ndarray:
        """The next payload of shape ``dims``, read straight into a fresh array."""
        self._claim(4 * math.prod(dims))
        payload = np.empty(dims, dtype="<f4")
        if self.file.readinto(payload) != payload.nbytes:  # the file shrank
            raise self.error(f"truncated file {self.path}")
        return payload


def _read_checkpoint(path):
    """The parameter-set class, masking step, config values and named
    payloads of the checkpoint at ``path``."""
    with open(path, "rb") as file:
        r = _Reader(file, path)
        if r.take(len(MAGIC)) != MAGIC:
            raise CheckpointFormatError(f"{path} is not a weights checkpoint (bad magic)")
        _, kind, code, *config, count = _HEADER.unpack(MAGIC + r.take(_HEADER.size - len(MAGIC)))
        if kind >= len(_KINDS):
            raise CheckpointFormatError(f"unknown model kind {kind} in {path}")
        if code >= len(_STEPS):
            raise CheckpointFormatError(f"{path}: step code {code} is not a masking step")
        entries: dict[str, np.ndarray] = {}
        for _ in range(count):
            name = r.name("tensor name")
            if name in entries:
                raise CheckpointFormatError(f"{path}: tensor {name!r} appears twice")
            rank = r.u32()
            entries[name] = r.floats(struct.unpack(f"<{rank}I", r.take(4 * rank)))
    if r.off != r.size:
        raise CheckpointFormatError(f"{path} has {r.size - r.off} trailing bytes")
    return _KINDS[kind], _STEPS[code], config, entries


def _param(entries: dict, name: str, dtype) -> Tensor:
    """Take the payload out of ``entries``, so that a float64 load frees each
    float32 payload as it converts it."""
    try:
        payload = entries.pop(name)
    except KeyError:
        raise CheckpointFormatError(f"checkpoint is missing tensor {name!r}") from None
    return Tensor(payload.astype(dtype, copy=False), requires_grad=True)


def load_weights(path, dtype=np.float32):
    """Load a checkpoint; returns ``(weights, step)``.

    ``weights`` is a :class:`.transformer.Weights` or
    :class:`.mice.MiceWeights` depending on the stored kind; ``step`` is the
    masking step recorded at save time. A config the header gives that is
    not valid, or that disagrees with the tensors, is refused naming the file.
    """
    dtype = np.dtype(dtype)
    cls, step, config, entries = _read_checkpoint(path)
    try:
        weights = cls.assemble(ModelConfig(*config), lambda name: _param(entries, name, dtype))
    except ValueError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from None
    if entries:  # what the parameters left: a tensor the layout does not name
        raise CheckpointFormatError(f"{path}: unknown tensor {next(iter(entries))!r}")
    return weights, step
