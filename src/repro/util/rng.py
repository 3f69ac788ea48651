"""Deterministic random-number management.

Every stochastic element of the simulator (run-to-run noise, region
imbalance profiles, search tie-breaking) draws from a generator derived
from a *root seed* plus a stable string key, so that

* whole experiments are reproducible bit-for-bit given the seed, and
* adding a new consumer of randomness never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
# and the PCG64 128-bit LCG multiplier.  ``normal_block`` replays
# ``default_rng(seed)`` construction with them; the property test in
# tests/test_util_rng.py fails if a numpy release changes either.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def derive_seed(root: int, *keys: object) -> int:
    """Derive a child seed from ``root`` and a sequence of hashable keys.

    The derivation is a SHA-256 over the decimal root and the ``repr``
    of each key, truncated to 64 bits.  It is stable across processes
    and Python versions (unlike ``hash``).
    """
    return _seed_of(_keyed_hash(root, keys))


def _keyed_hash(root: int, keys: tuple):
    h = hashlib.sha256()
    h.update(str(int(root)).encode())
    for key in keys:
        h.update(b"\x1f")
        h.update(repr(key).encode())
    return h


def _seed_of(h) -> int:
    return int.from_bytes(h.digest()[:8], "little") & _MASK64


def rng_for(root: int, *keys: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for a derived stream."""
    return np.random.default_rng(derive_seed(root, *keys))


def _hash_consts(init: int, mult: int, count: int):
    """The constants of SeedSequence's first ``count`` ``hashmix``
    calls, as uint32 columns: call k xors with ``init * mult**k`` and
    multiplies by ``init * mult**(k+1)``.  They depend on nothing but
    the call's position, so a whole block of seeds can share them."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


_MIX_XOR, _MIX_MUL = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE ** 2)
_OUT_XOR, _OUT_MUL = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_SHIFT16 = np.uint32(16)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray):
    values = (values ^ xor) * mul
    return values ^ (values >> _SHIFT16)


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(s))`` for each uint64
    seed ``s``, hashing the whole vector at once."""
    # entropy words: the seed's low and high halves (a zero high half
    # hashes exactly like SeedSequence's padding of a one-word seed)
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_MASK32)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _MIX_XOR[:_POOL_SIZE], _MIX_MUL[:_POOL_SIZE])
    # mix every word into every other; for one source word the three
    # destinations are independent, so they update as one (3, n) step
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        hashed = _hashmix(
            pool[src], _MIX_XOR[k:k + len(dst)], _MIX_MUL[k:k + len(dst)]
        )
        k += len(dst)
        mixed = (
            np.uint32(_MIX_MULT_L) * pool[dst]
            - np.uint32(_MIX_MULT_R) * hashed
        )
        pool[dst] = mixed ^ (mixed >> _SHIFT16)
    # generate_state(4, uint64): eight uint32 words cycling the pool,
    # paired little-endian into four uint64 words
    out = _hashmix(np.tile(pool, (2, 1)), _OUT_XOR, _OUT_MUL).astype(
        np.uint64
    )
    words = out[0::2] | (out[1::2] << np.uint64(32))
    states = []
    for w0, w1, w2, w3 in zip(*words.tolist()):
        # pcg_setseq_128_srandom_r(initstate=w0:w1, initseq=w2:w3)
        inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        state = ((inc + ((w0 << 64) | w1)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def normal_block(
    root: int, *keys: object, indices: Iterable[int], sigma: float
) -> list[float]:
    """``[rng_for(root, *keys, i).normal(0.0, sigma) for i in indices]``,
    bit for bit, at a third of the cost.

    Building a Generator per key is mostly ``SeedSequence`` hashing.
    Here the hashing runs once for the whole block in uint32 numpy, the
    PCG64 state derivation in Python ints, and every draw on one reused
    Generator whose state is set per key."""
    # derive_seed(root, *keys, index) for every index, hashing the
    # shared prefix of the keys once
    prefix = _keyed_hash(root, keys)
    seeds = []
    for index in indices:
        h = prefix.copy()
        h.update(b"\x1f" + repr(index).encode())
        seeds.append(_seed_of(h))
    bit_gen = np.random.PCG64(0)  # a fixed seed skips OS entropy
    gen = np.random.Generator(bit_gen)
    state = {"state": 0, "inc": 0}
    blob = {
        "bit_generator": "PCG64",
        "state": state,
        "has_uint32": 0,
        "uinteger": 0,
    }
    draws = []
    for state["state"], state["inc"] in _pcg64_states(
        np.array(seeds, dtype=np.uint64)
    ):
        bit_gen.state = blob
        draws.append(gen.normal(0.0, sigma))
    return draws
