"""Substream states and plain seeds are numpy's SeedSequence hash, computed in
rlab on ints and arrays; numpy's SeedSequence is the oracle."""

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlab.seeding import substream, substream_seed, substreams


def word(part) -> int:
    return zlib.crc32(part.encode()) if isinstance(part, str) else part & 0xFFFFFFFF


def numpy_seed(base_seed: int, *path) -> int:
    """The oracle: the first uint64 of numpy's SeedSequence state, shifted right by one."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(word(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


BASE_SEEDS = st.one_of(st.integers(0, 2**32), st.integers(0, 2**64 + 2**40),
                       st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128]))
WORDS = st.one_of(st.integers(0, 2**70), st.integers(-2**40, -1), st.text(max_size=12))


@settings(max_examples=500, deadline=None)
@given(base_seed=BASE_SEEDS, path=st.lists(WORDS, max_size=5))
def test_scalar_path_equals_numpy(base_seed, path):
    assert substream_seed(base_seed, *path) == numpy_seed(base_seed, *path)


@settings(max_examples=200, deadline=None)
@given(base_seed=BASE_SEEDS, before=st.lists(WORDS, max_size=2), after=st.lists(WORDS, max_size=2),
       # numpy's str arrays drop trailing NULs, so none are drawn;
       # surrogates have no UTF-8 encoding, as in st.text()'s default
       entries=st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters="\x00"),
                                max_size=6), min_size=1, max_size=8))
def test_array_word_gives_each_entry_its_seed(base_seed, before, after, entries):
    seeds = substream_seed(base_seed, *before, np.array(entries), *after)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [numpy_seed(base_seed, *before, e, *after) for e in entries]


def numpy_state(base_seed: int, *path) -> dict:
    """The oracle: the state of the PCG64 numpy seeds for the same address."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(word(p) for p in path))
    return np.random.PCG64(ss).state


@settings(max_examples=300, deadline=None)
@given(base_seed=BASE_SEEDS, path=st.lists(WORDS, max_size=5))
def test_generator_state_equals_numpy(base_seed, path):
    assert substream(base_seed, *path).bit_generator.state == numpy_state(base_seed, *path)


ARRAY_BASES = st.lists(st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1]),
                                 st.integers(0, 2**63 - 1)), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(bases=ARRAY_BASES, path=st.lists(WORDS, max_size=3))
def test_array_base_gives_each_entry_its_state(bases, path):
    got = [rng.bit_generator.state for rng in substreams(np.array(bases, np.uint64), *path)]
    assert got == [numpy_state(b, *path) for b in bases]


@settings(max_examples=150, deadline=None)
@given(base_seed=BASE_SEEDS, before=st.lists(WORDS, max_size=2), after=st.lists(WORDS, max_size=2),
       entries=st.one_of(
           st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=8),
           st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\x00"),
                            max_size=6), min_size=1, max_size=8)))
def test_array_word_gives_each_entry_its_state(base_seed, before, after, entries):
    got = [rng.bit_generator.state
           for rng in substreams(base_seed, *before, np.array(entries), *after)]
    assert got == [numpy_state(base_seed, *before, e, *after) for e in entries]


def test_substreams_are_built_as_they_are_reached():
    streams = substreams(5, "event", np.arange(3))
    assert not isinstance(streams, (list, tuple))
    assert [next(streams).integers(0, 2**62) for _ in range(3)] == [
        substream(5, "event", i).integers(0, 2**62) for i in range(3)]


def test_a_substream_pickles_with_its_position():
    rng = substream(3, "x")
    rng.integers(0, 9)
    back = pickle.loads(pickle.dumps(rng))
    assert back.bit_generator.state == rng.bit_generator.state
    assert back.integers(0, 2**62, 3).tolist() == rng.integers(0, 2**62, 3).tolist()


def test_pinned_seeds():
    assert substream_seed(0) == 7896617691693857887
    assert substream_seed(801, "abc", "round", 3) == 4045025887934336841
    assert substream_seed(2**70 + 5, "data", 1) == 7669330406694547540


def test_generator_and_seed_share_an_address():
    ss = np.random.SeedSequence(entropy=9, spawn_key=(word("init"), 2))
    want = np.random.default_rng(ss).integers(0, 2**62, 4)
    assert substream(9, "init", 2).integers(0, 2**62, 4).tolist() == want.tolist()


def test_negative_base_seed_is_rejected_as_numpy_rejects_it():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(entropy=-1)
    with pytest.raises(ValueError, match="non-negative integer, got -1"):
        substream_seed(-1, "round", 1)
