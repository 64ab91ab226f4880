"""Bitvectors with constant-time rank and sampled select.

This is the classic two-level rank directory (Jacobson [49], Clark [50] in the
paper's references): absolute popcounts every 512-bit superblock and relative
counts every 64-bit word give ``rank1`` in O(1); ``select1``/``select0`` use
position sampling plus a bounded scan.

It sits inside the Elias-Fano encoding and holds DAC's continuation
bitmaps.  §III-C also offers a length-``n`` bitvector over NeaTS's fragment
starts ``S`` as an O(1)-rank alternative; the NeaTS storage bisects its
start list instead, which needs no extra space.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .io import BitReader, BitWriter

__all__ = ["BitVector"]

_WORDS_PER_SUPER = 8  # 512-bit superblocks
_SELECT_SAMPLE = 512  # one sampled position every this many ones/zeros


def _popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word popcount of a uint64 array."""
    return np.bitwise_count(words).astype(np.uint32)


class BitVector:
    """A static bitvector supporting ``rank`` and ``select`` queries.

    Parameters
    ----------
    bits:
        Either an iterable of 0/1 values, or a ``(words, length)`` pair from a
        :class:`~repro.bits.io.BitWriter`.
    """

    def __init__(self, bits: Iterable[int] | tuple[np.ndarray, int]) -> None:
        if isinstance(bits, tuple):
            words, length = bits
            words = np.asarray(words, dtype=np.uint64)
            needed = (length + 63) // 64
            if len(words) < needed:
                words = np.concatenate(
                    [words, np.zeros(needed - len(words), dtype=np.uint64)]
                )
            self._words = words[:needed].copy() if needed else np.zeros(0, np.uint64)
        else:
            writer = BitWriter()
            length = 0
            for b in bits:
                writer.write(1 if b else 0, 1)
                length += 1
            self._words = writer.getbuffer()[: (length + 63) // 64]
        # Zero any bits past `length` so popcounts are exact.
        tail = length % 64
        if tail and len(self._words):
            self._words[-1] &= np.uint64((1 << tail) - 1)
        self.length = length
        self._reader = BitReader(self._words, length)
        self._build_rank()
        self._build_select()

    # -- construction ------------------------------------------------------

    def _build_rank(self) -> None:
        counts = _popcount_words(self._words)
        n_words = len(self._words)
        n_super = (n_words + _WORDS_PER_SUPER - 1) // _WORDS_PER_SUPER
        self._super = np.zeros(n_super + 1, dtype=np.uint64)
        self._word_rel = np.zeros(n_words, dtype=np.uint32)
        running = 0
        for s in range(n_super):
            self._super[s] = running
            rel = 0
            base = s * _WORDS_PER_SUPER
            for w in range(base, min(base + _WORDS_PER_SUPER, n_words)):
                self._word_rel[w] = rel
                rel += int(counts[w])
            running += rel
        self._super[n_super] = running
        self.count_ones = running
        self._word_ints = self._words.tolist()

    def _build_select(self) -> None:
        # Sample the position of every SELECT_SAMPLE-th one (and zero).
        ones_pos = []
        zeros_pos = []
        seen1 = seen0 = 0
        for w, word in enumerate(self._word_ints):
            base = w * 64
            limit = min(64, self.length - base)
            for b in range(limit):
                if (word >> b) & 1:
                    if seen1 % _SELECT_SAMPLE == 0:
                        ones_pos.append(base + b)
                    seen1 += 1
                else:
                    if seen0 % _SELECT_SAMPLE == 0:
                        zeros_pos.append(base + b)
                    seen0 += 1
        self._sample1 = np.array(ones_pos, dtype=np.int64)
        self._sample0 = np.array(zeros_pos, dtype=np.int64)

    # -- queries -----------------------------------------------------------

    @property
    def words(self) -> np.ndarray:
        """The underlying ``uint64`` word buffer (for serialisation).

        Rebuilding via ``BitVector((words, length))`` reproduces this vector
        exactly, rank directory and select samples included.
        """
        return self._words

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self._word_ints[i >> 6] >> (i & 63)) & 1

    def rank1(self, i: int) -> int:
        """Number of ones in positions ``[0, i)``; ``i`` may equal length."""
        if i <= 0:
            return 0
        if i >= self.length:
            return self.count_ones
        w, b = divmod(i, 64)
        if w == len(self._word_ints):
            return self.count_ones
        acc = int(self._super[w // _WORDS_PER_SUPER]) + int(self._word_rel[w])
        if b:
            acc += ((self._word_ints[w] & ((1 << b) - 1))).bit_count()
        return acc

    def rank0(self, i: int) -> int:
        """Number of zeros in positions ``[0, i)``."""
        i = min(max(i, 0), self.length)
        return i - self.rank1(i)

    def select1(self, k: int) -> int:
        """Position of the ``k``-th one (0-based).  O(1) expected."""
        if not 0 <= k < self.count_ones:
            raise IndexError(f"select1({k}) with {self.count_ones} ones")
        start = int(self._sample1[k // _SELECT_SAMPLE])
        w = start >> 6
        # Skip ones before `start` inside its word.
        need = k - self.rank1(start)
        word = self._word_ints[w] >> (start & 63)
        pos = start
        while True:
            ones = word.bit_count()
            if need < ones:
                # The answer is inside `word`.
                for _ in range(need):
                    word &= word - 1
                return pos + ((word & -word).bit_length() - 1)
            need -= ones
            w += 1
            pos = w << 6
            word = self._word_ints[w]

    def select0(self, k: int) -> int:
        """Position of the ``k``-th zero (0-based)."""
        total0 = self.length - self.count_ones
        if not 0 <= k < total0:
            raise IndexError(f"select0({k}) with {total0} zeros")
        start = int(self._sample0[k // _SELECT_SAMPLE])
        w = start >> 6
        need = k - self.rank0(start)
        mask = (1 << 64) - 1
        word = (~self._word_ints[w] & mask) >> (start & 63)
        pos = start
        while True:
            zeros = word.bit_count()
            if need < zeros:
                for _ in range(need):
                    word &= word - 1
                return pos + ((word & -word).bit_length() - 1)
            need -= zeros
            w += 1
            pos = w << 6
            word = ~self._word_ints[w] & mask

    def predecessor1(self, i: int) -> int:
        """Largest position ``p <= i`` with a one bit, or -1 if none."""
        r = self.rank1(min(i, self.length - 1) + 1)
        if r == 0:
            return -1
        return self.select1(r - 1)

    def to_numpy(self) -> np.ndarray:
        """Decode to a 0/1 ``uint8`` vector (vectorised)."""
        if self.length == 0:
            return np.zeros(0, dtype=np.uint8)
        bits = np.unpackbits(
            self._words.view(np.uint8), bitorder="little"
        )
        return bits[: self.length]

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Decode bits ``[start, stop)`` into a 0/1 ``uint8`` vector."""
        if not 0 <= start <= stop <= self.length:
            raise IndexError((start, stop))
        if start == stop:
            return np.zeros(0, dtype=np.uint8)
        w0, w1 = start >> 6, (stop - 1) >> 6
        bits = np.unpackbits(
            self._words[w0 : w1 + 1].view(np.uint8), bitorder="little"
        )
        off = start - (w0 << 6)
        return bits[off : off + (stop - start)]

    def size_bits(self) -> int:
        """Space occupancy of a tightly packed layout.

        The in-memory Python object trades space for simplicity (uint32
        relative counts, int64 samples); the accounted size models the
        standard succinct layout instead — a rank directory at 25% of the
        payload (sdsl's ``rank_support_v``) and 32-bit select samples —
        because that is what the compression-ratio comparison against the
        paper's sdsl/sux-based implementation should charge.
        """
        payload = len(self._words) * 64
        rank_directory = payload // 4
        samples = (len(self._sample1) + len(self._sample0)) * 32
        return payload + rank_directory + samples
