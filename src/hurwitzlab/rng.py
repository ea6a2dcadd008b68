"""Counter-based deterministic randomness.

Streams are derived from (seed, stream index) by hashing; draws are
platform-independent and independent of scheduling, so parallel trial
loops reproduce exactly for any worker count.  Block k of stream (seed, t)
is SHA-256 of the key (seed, t) and the counter k; its 32 bytes are four
big-endian 64-bit words.  `CounterRng` reads one stream a word at a time;
`randints` reads the leading words of many streams into one array and turns
them into the draws `randint` would make.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def _key(seed: int, stream: int) -> bytes:
    return struct.pack(">qq", seed & 0x7FFFFFFFFFFFFFFF, stream)


def rejection_limit(n: int) -> int:
    """A uniform integer in [0, n) is x % n for the first 64-bit word x
    below this limit; words at or above it are rejected."""
    return (1 << 64) - ((1 << 64) % n)


class CounterRng:
    """SHA-256 counter stream; uniform integers via rejection sampling."""

    __slots__ = ("_key", "_counter", "_buf", "_pos")

    def __init__(self, seed: int, stream: int = 0):
        self._key = _key(seed, stream)
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def _refill(self):
        self._buf = hashlib.sha256(
            self._key + struct.pack(">q", self._counter)).digest()
        self._counter += 1
        self._pos = 0

    def bits64(self) -> int:
        if self._pos + 8 > len(self._buf):
            self._refill()
        out = int.from_bytes(self._buf[self._pos:self._pos + 8], "big")
        self._pos += 8
        return out

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        limit = rejection_limit(n)
        while True:
            x = self.bits64()
            if x < limit:
                return x % n


def substream(seed: int, index: int) -> CounterRng:
    return CounterRng(seed, index)


def randints(seed: int, streams: range, bounds) -> tuple:
    """What randint(b) for b in `bounds`, in order, returns on each stream
    (seed, t), t in `streams`, as a (len(streams), len(bounds)) int64 array,
    and a bool array marking the streams where a word was at or above its
    bound's rejection limit: their rows are not randint's and need the
    stream itself.  As in randint, a bound of 1 reads no word."""
    bounds = np.array(bounds, dtype=np.uint64)
    live = np.flatnonzero(bounds > 1)
    counters = [struct.pack(">q", c) for c in range(-(-len(live) // 4))]
    sha = hashlib.sha256
    buf = b"".join([sha(key + c).digest() for key in
                    [_key(seed, t) for t in streams] for c in counters])
    words = np.frombuffer(buf, ">u8").reshape(len(streams), 4 * len(counters))
    words = words[:, :len(live)].astype(np.uint64)
    top = np.array([rejection_limit(int(b)) - 1 for b in bounds[live]],
                   dtype=np.uint64)
    draws = np.zeros((len(streams), len(bounds)), dtype=np.int64)
    draws[:, live] = words % bounds[live]
    return draws, (words > top).any(axis=1)
