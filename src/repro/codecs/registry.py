"""First-class codec registry: every compressor in the repo, by stable id.

The paper's deployment story (§IV-C1) treats compressors as interchangeable
parts — a cheap streaming codec at ingest, NeaTS at rest.  This registry is
the API that makes them interchangeable: each codec registers under a stable
string id with its capability flags, and anything in the system (the CLI, the
tiered store, the benchmark harness, archives on disk) refers to codecs by id
only.

>>> from repro.codecs import available_codecs, get_codec
>>> "neats" in available_codecs() and "gorilla" in available_codecs()
True
>>> import numpy as np
>>> c = get_codec("gorilla").compress(np.arange(100, dtype=np.int64))
>>> c.codec_id
'gorilla'

Registering a codec::

    @register_codec("mycodec", native_random_access=True, load_native=load_mycodec)
    def make_mycodec(**params):
        return MyCompressor(**params)

The factory returns a fresh compressor (anything with a ``compress(values)``
method producing a :class:`~repro.baselines.base.Compressed`).  The registry
wraps ``compress`` so every produced object carries its codec id and params —
that provenance is what makes the framed serialisation self-describing.
``load_mycodec(payload, params)`` parses an object's ``to_payload()`` back;
a codec registered without a ``load_native`` can compress but not serialise.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field

from . import serialize

__all__ = [
    "CodecSpec",
    "register_codec",
    "unregister_codec",
    "get_codec",
    "available_codecs",
    "codec_spec",
    "load_compressed",
]

_ID_RE = re.compile(r"^[a-z][a-z0-9_]*$")


@dataclass(frozen=True)
class CodecSpec:
    """Registry entry: identity, factory, and capability flags of one codec."""

    codec_id: str
    factory: Callable
    #: display name in the paper's Table III line-up (benchmark rendering)
    table_name: str = ""
    #: random access without a block-wise adapter (paper §IV-A2)
    native_random_access: bool = False
    #: reconstruction is approximate (error-bounded), not bit-exact
    lossy: bool = False
    #: the codec consumes the dataset's decimal ``digits`` scaling
    needs_digits: bool = False
    #: construction params that must be passed explicitly (e.g. ``eps`` for
    #: the lossy codecs — an error bound is a contract, never a default)
    required_params: tuple = ()
    description: str = ""
    #: parse a native frame payload back into a Compressed (None: the
    #: codec's objects cannot serialise)
    load_native: Callable | None = field(default=None, compare=False)


_REGISTRY: dict[str, CodecSpec] = {}
_BUILTINS_LOADED = False


def _ensure_builtins() -> None:
    """Register the built-in line-up on first use (breaks the import cycle)."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        from . import adapters  # noqa: F401  (registers on import)


def register_codec(
    codec_id: str,
    *,
    table_name: str = "",
    native_random_access: bool = False,
    lossy: bool = False,
    needs_digits: bool = False,
    required_params: tuple = (),
    description: str = "",
    load_native: Callable | None = None,
    overwrite: bool = False,
):
    """Class/function decorator registering a codec factory under ``codec_id``."""
    if not _ID_RE.match(codec_id):
        raise ValueError(
            f"invalid codec id {codec_id!r}: use lowercase letters, digits, '_'"
        )

    def deco(factory: Callable) -> Callable:
        if codec_id in _REGISTRY and not overwrite:
            raise ValueError(f"codec id {codec_id!r} is already registered")
        _REGISTRY[codec_id] = CodecSpec(
            codec_id=codec_id,
            factory=factory,
            table_name=table_name or codec_id,
            native_random_access=native_random_access,
            lossy=lossy,
            needs_digits=needs_digits,
            required_params=tuple(required_params),
            description=description or (factory.__doc__ or "").strip().split("\n")[0],
            load_native=load_native,
        )
        return factory

    return deco


def unregister_codec(codec_id: str) -> None:
    """Remove a codec (mainly for tests registering throwaway codecs)."""
    _ensure_builtins()
    _REGISTRY.pop(codec_id, None)


def codec_spec(name: str) -> CodecSpec:
    """The :class:`CodecSpec` registered under ``name``."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown codec {name!r}; known: {known}") from None


def available_codecs() -> list[str]:
    """Sorted ids of every registered codec."""
    _ensure_builtins()
    return sorted(_REGISTRY)


class _RegisteredCodec:
    """A registry-built compressor wrapped with provenance stamping.

    Wrapping (instead of monkey-patching ``compress`` onto the factory's
    instance, as earlier versions did) keeps ``__slots__``-bearing and
    frozen compressor classes usable as codec factories.  Every attribute
    other than ``compress`` and ``compress_many`` delegates to the wrapped
    compressor.
    """

    __slots__ = ("_inner", "_spec", "_params")

    def __init__(self, inner, spec: CodecSpec, params: dict) -> None:
        self._inner = inner
        self._spec = spec
        self._params = params

    @property
    def spec(self) -> CodecSpec:
        """The registry entry this compressor was built from."""
        return self._spec

    def compress(self, values):
        return self._stamp(self._inner.compress(values))

    def compress_many(self, series) -> list:
        """Compress each array in ``series``, stamped like :meth:`compress`.

        A factory need only define ``compress``; one without
        ``compress_many`` is mapped over the series.
        """
        many = getattr(self._inner, "compress_many", None)
        if many is None:
            return [self.compress(values) for values in series]
        return [self._stamp(compressed) for compressed in many(series)]

    def _stamp(self, compressed):
        compressed.codec_id = self._spec.codec_id
        compressed.codec_params = dict(self._params)
        return compressed

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<registered codec {self._spec.codec_id!r}: {self._inner!r}>"


def get_codec(name: str, **params):
    """A fresh compressor for codec ``name``, configured with ``params``.

    The returned compressor's ``compress`` stamps every compressed object
    it produces with ``codec_id`` and ``codec_params`` — the provenance
    that :meth:`Compressed.to_bytes` and the archive container embed in
    their self-describing headers.  Params the spec declares as required
    (e.g. the ``eps`` bound of every lossy codec) must be passed
    explicitly.
    """
    spec = codec_spec(name)
    missing = [p for p in spec.required_params if p not in params]
    if missing:
        hint = ", ".join(f"{p}=..." for p in missing)
        raise TypeError(
            f"codec {name!r} requires explicit construction params: "
            f"get_codec({name!r}, {hint})"
        )
    try:
        compressor = spec.factory(**params)
    except TypeError as exc:
        raise TypeError(f"codec {name!r}: {exc}") from exc
    return _RegisteredCodec(compressor, spec, dict(params))


def load_compressed(data):
    """Decode a codec frame (``Compressed.to_bytes`` output) back to an object.

    Native payloads parse directly.  ``values`` payloads, which no codec
    writes any more but older archives hold, re-run the recorded lossless
    codec deterministically, reproducing the identical compressed object.

    ``data`` may be any byte buffer — ``bytes``, a ``memoryview``, an mmap
    slice.  The parse is zero-copy: native loaders adopt views into ``data``
    (the buffer must outlive the returned object), which is what the lazy
    archive path of :mod:`repro.codecs.container` builds on.  ``data`` may
    also be the :class:`~repro.codecs.serialize.Frame` that
    :func:`~repro.codecs.serialize.read_frame` returned for such a buffer,
    which is then not parsed again: a lazy archive parses its frame header
    at open and decodes from it on first touch.
    """
    from ..baselines.base import Compressed

    if isinstance(data, serialize.Frame):
        frame = data
    else:
        frame = serialize.read_frame(data)
    spec = codec_spec(frame.codec_id)
    if frame.native:
        if spec.load_native is None:
            raise ValueError(
                f"codec {frame.codec_id!r} has no native payload loader; "
                "the frame is corrupt or from an incompatible version"
            )
        compressed = spec.load_native(frame.payload, frame.params)
        # Cross-check the frame header against what the native payload itself
        # records, when the loader exposes a count without decompressing.
        known = compressed._n
        if known is None and type(compressed).n is not Compressed.n:
            known = compressed.n  # overridden accessor: O(1) payload header read
        if known is not None and int(known) != frame.n:
            raise ValueError(
                f"corrupt codec frame: native payload holds {int(known)} "
                f"values, header says {frame.n}"
            )
    else:
        if spec.lossy:
            raise ValueError(
                f"codec {frame.codec_id!r} is lossy: a values frame "
                "cannot reproduce the approximation (decoded values are not "
                "the compressor's input); only native frames are valid"
            )
        values = serialize.decode_values(frame.payload, frame.n)
        compressed = get_codec(frame.codec_id, **frame.params).compress(values)
    # Propagate the header count so len()/compression_ratio() on a freshly
    # loaded object stay O(1) even when the loader left _n unset.
    compressed._n = frame.n
    compressed.codec_id = frame.codec_id
    compressed.codec_params = dict(frame.params)
    return compressed
