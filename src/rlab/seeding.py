"""Deterministic RNG substreams.

Every stochastic choice in the package draws from a substream addressed by
(base_seed, path of words).  Substreams are independent of evaluation order,
so parallel and serial runs consume identical randomness per unit of work.

A substream is numpy's SeedSequence(entropy=base_seed, spawn_key=words).
Plain seeds come from its hash (O'Neill's seed_seq), computed here bit for
bit on Python ints and on uint64 arrays alike, so one call derives the seeds
of a whole array of path words.
"""

from __future__ import annotations

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


def _base_pool(base_seed: int) -> tuple[list, int]:
    """The pool after base_seed's words, zero-padded to the pool size, and the
    hash constant after them.  Without path words numpy pads nothing, but it
    hashes a missing word as a zero one: the pool is the same."""
    if base_seed < 0:       # numpy: "expected non-negative integer"
        raise ContractError(f"a base seed must be a non-negative integer, got {base_seed}")
    words = [base_seed >> shift & _MASK for shift in range(0, max(base_seed.bit_length(), 1), 32)]
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


def substream(base_seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the substream addressed by `path` under `base_seed`."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(_word(p) for p in path))
    return np.random.default_rng(ss)


def substream_seed(base_seed: int, *path: int | str | np.ndarray) -> int | np.ndarray:
    """A 63-bit integer seed derived from the same addressing scheme: the
    first uint64 of the substream's SeedSequence state, shifted right by one.

    Used where an API wants a plain seed (e.g. per-instance init seeds that
    get recorded in reports) rather than a Generator.  One path word may be
    an array of strings: the result is then a uint64 array, one seed per
    entry.  (A numpy str array drops its entries' trailing NULs.)
    """
    pool, const = _base_pool(int(base_seed))
    _absorb(pool, [_word(p) for p in path], const)
    halves, const = [], INIT_B
    for word in pool[:2]:
        hashed, const = _hashmix(word, const, MULT_B)
        halves.append(hashed)
    return (halves[0] | halves[1] << 32) >> 1
