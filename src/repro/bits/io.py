"""Bit-level I/O over numpy ``uint64`` words.

These are the lowest-level building blocks of the repository: every succinct
structure (packed arrays, bitvectors, Elias-Fano) and every
bit-oriented baseline compressor (Gorilla, Chimp, TSXor headers, DAC) sits on
top of :class:`BitWriter` and :class:`BitReader`.

The layout convention is LSB-first within a word: bit ``i`` of the stream is
bit ``i % 64`` of word ``i // 64``.  Multi-bit fields are stored with their
least significant bit first, which makes ``write(v, w)`` followed by
``read(w)`` an exact round-trip for any ``0 <= v < 2**w``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "BitReader"]

_WORD = 64
_MASKS = [(1 << w) - 1 for w in range(_WORD + 1)]


class BitWriter:
    """An append-only bit buffer.

    Example
    -------
    >>> w = BitWriter()
    >>> w.write(5, 3)
    >>> w.write(1, 1)
    >>> r = BitReader(w.getbuffer(), w.bit_length)
    >>> r.read(3), r.read(1)
    (5, 1)
    """

    def __init__(self) -> None:
        self._words: list[int] = [0]
        self._bit = 0  # bits used in the last word

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return (len(self._words) - 1) * _WORD + self._bit

    def write(self, value: int, width: int) -> None:
        """Append ``width`` low bits of non-negative ``value``."""
        if width == 0:
            return
        if width < 0 or width > _WORD:
            raise ValueError(f"width must be in [0, 64], got {width}")
        value &= _MASKS[width]
        free = _WORD - self._bit
        if width <= free:
            self._words[-1] |= value << self._bit
            self._bit += width
            if self._bit == _WORD:
                self._words.append(0)
                self._bit = 0
        else:
            self._words[-1] |= (value << self._bit) & _MASKS[_WORD]
            self._words.append(value >> free)
            self._bit = width - free

    def write_unary(self, value: int) -> None:
        """Append ``value`` zero bits followed by a one bit."""
        if value < 0:
            raise ValueError("unary values must be non-negative")
        while value >= _WORD:
            self.write(0, _WORD)
            value -= _WORD
        self.write(1 << value, value + 1)

    def write_bool(self, flag: bool) -> None:
        """Append a single bit."""
        self.write(1 if flag else 0, 1)

    def write_run(self, bit: int, count: int) -> None:
        """Append ``count`` copies of ``bit``."""
        word = _MASKS[_WORD] if bit else 0
        while count >= _WORD:
            self.write(word, _WORD)
            count -= _WORD
        if count:
            self.write(word & _MASKS[count], count)

    def extend(self, other: "BitWriter") -> None:
        """Append the contents of another writer, bit by word."""
        reader = BitReader(other.getbuffer(), other.bit_length)
        remaining = other.bit_length
        while remaining >= _WORD:
            self.write(reader.read(_WORD), _WORD)
            remaining -= _WORD
        if remaining:
            self.write(reader.read(remaining), remaining)

    def getbuffer(self) -> np.ndarray:
        """Return the underlying words as a ``uint64`` array (copy)."""
        return np.array(self._words, dtype=np.uint64)

    def tobytes(self) -> bytes:
        """Serialise to bytes (little-endian words)."""
        return self.getbuffer().tobytes()


class BitReader:
    """Sequential + random-access reader over a ``uint64`` word buffer."""

    def __init__(self, words: np.ndarray, bit_length: int) -> None:
        if words.dtype != np.uint64:
            words = words.astype(np.uint64)
        self._words = words
        self._ints = words.tolist()  # python ints: faster single-bit math
        self.bit_length = bit_length
        self.pos = 0

    @classmethod
    def frombytes(cls, data: bytes, bit_length: int | None = None) -> "BitReader":
        """Build a reader from a bytes object produced by ``tobytes``."""
        pad = (-len(data)) % 8
        if pad:
            data = data + b"\x00" * pad
        words = np.frombuffer(data, dtype=np.uint64)
        if bit_length is None:
            bit_length = 8 * len(data)
        return cls(words.copy(), bit_length)

    def seek(self, bit: int) -> None:
        """Move the cursor to absolute bit offset ``bit``."""
        if bit < 0 or bit > self.bit_length:
            raise ValueError(f"seek out of range: {bit}")
        self.pos = bit

    def read(self, width: int) -> int:
        """Read ``width`` bits at the cursor and advance."""
        value = self.peek_at(self.pos, width)
        self.pos += width
        return value

    def read_bool(self) -> bool:
        """Read a single bit as a boolean."""
        return bool(self.read(1))

    def read_unary(self) -> int:
        """Read a unary code (count of zeros before the next one bit)."""
        count = 0
        word_idx, bit_idx = divmod(self.pos, _WORD)
        while True:
            if word_idx >= len(self._ints):
                raise EOFError("unary code ran past end of stream")
            chunk = self._ints[word_idx] >> bit_idx
            if chunk:
                tz = (chunk & -chunk).bit_length() - 1
                count += tz
                self.pos = word_idx * _WORD + bit_idx + tz + 1
                return count
            count += _WORD - bit_idx
            word_idx += 1
            bit_idx = 0

    def peek_at(self, bit: int, width: int) -> int:
        """Read ``width`` bits at absolute offset ``bit`` without moving."""
        if width == 0:
            return 0
        if width < 0 or width > _WORD:
            raise ValueError(f"width must be in [0, 64], got {width}")
        if bit + width > self.bit_length:
            raise EOFError(
                f"read past end: bit={bit} width={width} length={self.bit_length}"
            )
        word_idx, bit_idx = divmod(bit, _WORD)
        value = self._ints[word_idx] >> bit_idx
        got = _WORD - bit_idx
        if got < width:
            value |= self._ints[word_idx + 1] << got
        return value & _MASKS[width]

    def bit_at(self, bit: int) -> int:
        """Return the single bit at absolute offset ``bit``."""
        word_idx, bit_idx = divmod(bit, _WORD)
        return (self._ints[word_idx] >> bit_idx) & 1

    @property
    def words(self) -> np.ndarray:
        """The underlying word buffer."""
        return self._words
