"""Binary words and the binary entropy function.

Words are fixed-length sequences of bits, iterated and printed first bit
first.  All values are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

__all__ = ["BitString", "binary_entropy"]

_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")
_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")


class BitString:
    """An immutable word of bits.

    Accepts a string of ``'0'``/``'1'`` characters or an iterable of 0/1
    values (integers, booleans or a numpy array).  Empty words are
    rejected.  The bits are held as ``bytes``, one 0/1 byte per bit.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: "str | Iterable[int]"):
        if isinstance(bits, str):
            if bits.strip("01"):
                raise ValueError(f"not a binary word: {bits!r}")
            data = bits.encode("ascii").translate(_FROM_ASCII)
        else:
            values = list(bits)
            if not all(b == 0 or b == 1 for b in values):
                raise ValueError("bits must be 0 or 1")
            data = bytes(1 if b == 1 else 0 for b in values)
        if not data:
            raise ValueError("empty word")
        object.__setattr__(self, "_bits", data)

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __str__(self) -> str:
        return self._bits.translate(_TO_ASCII).decode("ascii")

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"

    @property
    def weight(self) -> int:
        """Number of ones in the word."""
        return self._bits.count(1)


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

