"""Binary words and the binary entropy function.

Words are fixed-length sequences of bits with 1-based positions, matching
the convention used throughout the protocol analysis: position 1 is the
first bit.  All values are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

__all__ = ["BitString", "binary_entropy"]


class BitString:
    """An immutable word of bits with 1-based indexing.

    Accepts a string of ``'0'``/``'1'`` characters, an iterable of 0/1
    integers, or a numpy array.  Empty words are rejected.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: "str | Iterable[int] | np.ndarray"):
        if isinstance(bits, str):
            if not all(c in "01" for c in bits):
                raise ValueError(f"not a binary word: {bits!r}")
            arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        else:
            arr = np.asarray(bits, dtype=np.uint8).ravel()
            if arr.size and not np.all((arr == 0) | (arr == 1)):
                raise ValueError("bits must be 0 or 1")
        if arr.size == 0:
            raise ValueError("empty word")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "_bits", arr)

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    def __len__(self) -> int:
        return int(self._bits.size)

    def __iter__(self) -> Iterator[int]:
        return iter(int(b) for b in self._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._bits.shape == other._bits.shape and bool(
            np.all(self._bits == other._bits)
        )

    def __hash__(self) -> int:
        return hash(self._bits.tobytes())

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self._bits)

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"

    def __xor__(self, other: "BitString") -> "BitString":
        if len(self) != len(other):
            raise ValueError("length mismatch in XOR")
        return BitString(np.bitwise_xor(self._bits, other._bits))

    def bit(self, i: int) -> int:
        """Return the bit at 1-based position ``i``."""
        if not 1 <= i <= len(self):
            raise IndexError(f"position {i} out of range [1, {len(self)}]")
        return int(self._bits[i - 1])

    @property
    def weight(self) -> int:
        """Number of ones in the word."""
        return int(self._bits.sum())

    def to_array(self) -> np.ndarray:
        """Bits as a fresh uint8 array."""
        return self._bits.copy()


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy -x*log2(x) - (1-x)*log2(1-x), in bits.

    The limits at 0 and 1 are taken to be 0.  Raises on arguments outside
    [0, 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)

