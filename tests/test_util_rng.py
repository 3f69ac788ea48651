"""Tests for deterministic RNG derivation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import _pcg64_states, derive_seed, normal_block, rng_for


def test_derive_seed_deterministic():
    assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)


def test_derive_seed_differs_by_key():
    assert derive_seed(42, "a") != derive_seed(42, "b")


def test_derive_seed_differs_by_root():
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_derive_seed_order_sensitive():
    assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")


def test_derive_seed_in_64_bit_range():
    seed = derive_seed(2**80, "huge")
    assert 0 <= seed < 2**64


def test_rng_for_reproducible_stream():
    a = rng_for(3, "stream").normal(size=8)
    b = rng_for(3, "stream").normal(size=8)
    assert (a == b).all()


def test_rng_for_independent_streams():
    a = rng_for(3, "s1").normal(size=8)
    b = rng_for(3, "s2").normal(size=8)
    assert (a != b).any()


@given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=20))
def test_derive_seed_always_valid(root, key):
    seed = derive_seed(root, key)
    assert 0 <= seed < 2**64


@given(
    st.integers(min_value=0, max_value=1000),
    st.lists(st.integers(), max_size=4),
)
def test_derive_seed_stable_under_repr_keys(root, keys):
    assert derive_seed(root, *keys) == derive_seed(root, *keys)


# ``normal_block`` replays numpy's SeedSequence and PCG64 seeding by
# hand; these pin it to numpy, so a numpy release that changes either
# fails here instead of silently shifting every noise draw.

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@settings(max_examples=60, deadline=None)
@given(
    root=st.integers(min_value=0, max_value=2**64 - 1),
    sigma=st.floats(min_value=1e-9, max_value=1e3),
    first=st.integers(min_value=0, max_value=2**40),
    size=st.integers(min_value=1, max_value=40),
)
def test_normal_block_is_rng_for_bit_for_bit(root, sigma, first, size):
    indices = range(first, first + size)
    got = normal_block(root, "noise", indices=indices, sigma=sigma)
    want = [rng_for(root, "noise", i).normal(0.0, sigma) for i in indices]
    assert [z.hex() for z in got] == [z.hex() for z in want]


@pytest.mark.parametrize("root", EDGE_SEEDS)
def test_normal_block_edge_roots(root):
    indices = [0, 1, 2**32, 2**64 - 1]
    got = normal_block(root, "noise", 3, indices=indices, sigma=0.01)
    want = [rng_for(root, "noise", 3, i).normal(0.0, 0.01) for i in indices]
    assert [z.hex() for z in got] == [z.hex() for z in want]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(EDGE_SEEDS),
            st.integers(min_value=0, max_value=2**64 - 1),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_pcg64_seeding_matches_numpy(seeds):
    """The seeding step on derived seeds themselves, edge values
    included (no root derives exactly 0 or 2**64 - 1)."""
    got = _pcg64_states(np.array(seeds, dtype=np.uint64))
    for seed, (state, inc) in zip(seeds, got):
        want = np.random.default_rng(seed).bit_generator.state["state"]
        assert (state, inc) == (want["state"], want["inc"])


def test_normal_block_empty():
    assert normal_block(5, "noise", indices=[], sigma=0.1) == []
