"""Balanced wavelet tree over a small alphabet.

The paper represents the per-fragment function-kind array ``K`` as a wavelet
tree (Grossi-Gupta-Vitter [48]) so that ``K.rank_f(i)`` — the number of
occurrences of kind ``f`` in ``K[1, i]`` — runs in O(log |F|) time, which is
how random access locates a fragment's parameters inside the per-kind
parameter array ``P_f`` (Algorithm 3, line 4).  Here
``NeaTSStorage.size_bits()`` builds one only to charge that space; random
access reads each fragment's parameters from a table made at load.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bitvector import BitVector

__all__ = ["WaveletTree"]


class WaveletTree(Sequence[int]):
    """Static sequence over ``{0, ..., sigma - 1}`` with access and rank."""

    def __init__(self, symbols: Sequence[int], sigma: int | None = None) -> None:
        symbols = list(symbols)
        if sigma is None:
            sigma = max(symbols, default=0) + 1
        if any(not 0 <= s < sigma for s in symbols):
            raise ValueError("symbol out of alphabet range")
        self._sigma = max(sigma, 1)
        self._n = len(symbols)
        self._bits_per_symbol = max(1, (self._sigma - 1).bit_length())
        # Level-order array of (bitvector, span) nodes; nodes are addressed by
        # (level, code-prefix) and laid out in a dict for sparse alphabets.
        self._nodes: dict[tuple[int, int], BitVector] = {}
        self._build(symbols, level=0, prefix=0)

    def _build(self, symbols: list[int], level: int, prefix: int) -> None:
        if level == self._bits_per_symbol or not symbols:
            return
        shift = self._bits_per_symbol - level - 1
        bits = [(s >> shift) & 1 for s in symbols]
        self._nodes[(level, prefix)] = BitVector(bits)
        left = [s for s, b in zip(symbols, bits) if not b]
        right = [s for s, b in zip(symbols, bits) if b]
        self._build(left, level + 1, prefix << 1)
        self._build(right, level + 1, (prefix << 1) | 1)

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def sigma(self) -> int:
        """Alphabet size."""
        return self._sigma

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._n))]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(index)
        symbol = 0
        prefix = 0
        i = index
        for level in range(self._bits_per_symbol):
            node = self._nodes.get((level, prefix))
            if node is None:
                break
            bit = node[i]
            symbol = (symbol << 1) | bit
            if bit:
                i = node.rank1(i)
            else:
                i = i - node.rank1(i)
            prefix = (prefix << 1) | bit
        else:
            return symbol
        return symbol << (self._bits_per_symbol - level)

    # -- rank ------------------------------------------------------------------

    def rank(self, symbol: int, i: int) -> int:
        """Occurrences of ``symbol`` in positions ``[0, i)``."""
        if not 0 <= symbol < self._sigma:
            raise ValueError(f"symbol {symbol} out of range")
        i = min(max(i, 0), self._n)
        prefix = 0
        for level in range(self._bits_per_symbol):
            node = self._nodes.get((level, prefix))
            if node is None:
                return 0
            shift = self._bits_per_symbol - level - 1
            bit = (symbol >> shift) & 1
            if bit:
                i = node.rank1(i)
            else:
                i = i - node.rank1(i)
            prefix = (prefix << 1) | bit
            if i == 0:
                return 0
        return i

    def count(self, symbol: int) -> int:
        """Total occurrences of ``symbol``."""
        return self.rank(symbol, self._n)

    def to_list(self) -> list[int]:
        """Decode the full sequence."""
        return [self[i] for i in range(self._n)]

    def size_bits(self) -> int:
        """Total space of all node bitvectors."""
        return sum(node.size_bits() for node in self._nodes.values()) + 64
