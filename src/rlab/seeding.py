"""Deterministic RNG substreams.

Every stochastic choice in the package draws from a substream addressed by
(base_seed, path of words).  Substreams are independent of evaluation order,
so parallel and serial runs consume identical randomness per unit of work.

A substream is the PCG64 stream that numpy seeds from a SeedSequence with
entropy base_seed and spawn_key words.  That seeding is O'Neill's seed_seq
hash, computed here bit for bit on Python ints and on uint64 arrays alike:
one call derives the states of a whole array of bases or path words.  Plain
seeds come from the same hash.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from .errors import ContractError

_MASK = 0xFFFFFFFF
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875        # the entropy hash
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED        # the output hash
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4


def _word(part):
    # Strings hash through crc32 so paths stay platform-stable.
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, np.ndarray):     # each entry as a word of its own
        if part.dtype.kind in "iu":
            return part.astype(np.uint64) & _MASK
        return np.fromiter(map(_word, part.tolist()), np.uint64, part.size)
    return int(part) & _MASK


# Each step works on 32-bit words held in Python ints or uint64 arrays: the
# product of two words fits in 64 bits, and & _MASK wraps it as uint32 would.

def _hashmix(value, const: int, mult: int = MULT_A):
    """(hashed value, next hash constant)."""
    after = const * mult & _MASK
    value = (value ^ const) * after & _MASK
    return value ^ value >> 16, after


def _mix(x, y):
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & _MASK
    return result ^ result >> 16


def _absorb(pool: list, words, const: int) -> int:
    """Mix each word into every pool word; returns the hash constant after."""
    for word in words:
        for dst in range(POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return const


def _base_pool(base_seed) -> tuple[list, int]:
    """The pool after base_seed's words, zero-padded to the pool size, and the
    hash constant after them.  Without path words numpy pads nothing, but it
    hashes a missing word as a zero one: the pool is the same.  base_seed is
    an int or a uint64 array, whose entries have at most two words."""
    if isinstance(base_seed, np.ndarray):
        words = [base_seed & _MASK, base_seed >> 32]
    elif base_seed < 0:       # numpy: "expected non-negative integer"
        raise ContractError(f"a base seed must be a non-negative integer, got {base_seed}")
    else:
        words = [base_seed >> shift & _MASK
                 for shift in range(0, max(base_seed.bit_length(), 1), 32)]
    words += [0] * (POOL_SIZE - len(words))
    pool, const = [], INIT_A
    for word in words[:POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(POOL_SIZE):       # late words reach early ones
        for dst in range(POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    const = _absorb(pool, words[POOL_SIZE:], const)
    return pool, const


def _output(base_seed, path: tuple, n_words: int) -> list:
    """The first n_words 32-bit words of numpy's generate_state for the
    substream; word i hashes pool word i mod the pool size."""
    if not isinstance(base_seed, np.ndarray):
        base_seed = int(base_seed)
    pool, const = _base_pool(base_seed)
    _absorb(pool, [_word(p) for p in path], const)
    out, const = [], INIT_B
    for i in range(n_words):
        hashed, const = _hashmix(pool[i % POOL_SIZE], const, MULT_B)
        out.append(hashed)
    return out


def _state(base_seed, *path) -> np.ndarray:
    """numpy's generate_state(4, uint64) for the substream: the seed and
    increment words PCG64 is built from.  Shape [..., 4], one row per entry
    of an array base or path word."""
    out = _output(base_seed, path, 8)
    words = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    if isinstance(words[0], int):
        return np.array(words, np.uint64)
    return np.stack(words, axis=-1)     # every pool word took in an array


@functools.cache
def _state_words_type() -> type:
    """The ISeedSequence that hands PCG64 its precomputed state words.  It is
    defined on first use, so that importing rlab does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words       # PCG64 asks for its generate_state(4, uint64)

        def __reduce__(self):       # a pickled generator names a module-level function
            return _state_words, (self.words,)

    return StateWords


def _state_words(words: np.ndarray):
    return _state_words_type()(words)


@functools.cache
def _pcg64_from():
    """A function from state words to a Generator over PCG64."""
    from numpy.random import PCG64, Generator
    return lambda words: Generator(PCG64(_state_words(words)))


def substream(base_seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the substream addressed by `path` under `base_seed`."""
    return _pcg64_from()(_state(base_seed, *path))


def substreams(base_seed: int | np.ndarray, *path: int | str | np.ndarray):
    """An iterator of the substreams of each entry of an array base (uint64)
    or of one array path word, in entry order.  All states are derived in
    one pass; each generator is built only when the iterator reaches it."""
    return map(_pcg64_from(), _state(base_seed, *path))


def substream_seed(base_seed: int, *path: int | str | np.ndarray) -> int | np.ndarray:
    """A 63-bit integer seed derived from the same addressing scheme: the
    first uint64 of the substream's state words, shifted right by one.

    Used where an API wants a plain seed (e.g. per-instance init seeds that
    get recorded in reports) rather than a Generator.  One path word may be
    an array of strings: the result is then a uint64 array, one seed per
    entry.  (A numpy str array drops its entries' trailing NULs.)
    """
    low, high = _output(base_seed, path, 2)
    return (low | high << 32) >> 1
