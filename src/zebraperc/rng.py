"""Counter-based random streams keyed by (seed, trial index, bond address).

Every bond value is a pure function of the master seed, the trial index, and
the bond's address key, so sampling order, early termination, and worker
scheduling cannot change any outcome. The derivation rule below is part of
the reproducibility contract: identical seeds give identical results on any
platform.

  address key:  root = ROOT_KEY; child i of key x = mix64(x ^ (i+1)*GOLDEN)
  trial base:   mix64(mix64(seed) + (trial+1)*GOLDEN)
  bond word:    mix64(base ^ address_key)
  bond uniform: word * 2**-64, the word rounded to a double
  bond open:    uniform < p, which holds exactly when word < y, for y the
                least integer with y * 2**-64 >= p (kernel.open_threshold)

The batched kernel evaluates the integer form, word < y, and only there
(kernel.OpenTable); the two forms agree on every word and every p in [0, 1],
so both give the same bonds. A bond's word does not depend on p, only the
threshold y does, so the words drawn once for a trial decide its bonds at
every p of a grid: one counting walk serves a group of points
(kernel.zebra_counts).
"""

from __future__ import annotations

from collections.abc import Iterable

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TO_UNIT = 2.0**-64

ROOT_KEY = 0x243F6A8885A308D3


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective scramble of a 64-bit word."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def child_key(key: int, index: int) -> int:
    """Address key of the index-th child of the vertex with address key `key`."""
    return mix64(key ^ (((index + 1) * _GOLDEN) & _MASK))


def vertex_key(address: Iterable[int]) -> int:
    """Address key of an explicit vertex address (the root is the empty tuple)."""
    key = ROOT_KEY
    for i in address:
        key = child_key(key, i)
    return key


def derive_seed(seed: int, index: int) -> int:
    """Stable sub-seed for an indexed sub-experiment."""
    return mix64(mix64(seed & _MASK) ^ (((index + 1) * _GOLDEN) & _MASK))


class TrialStream:
    """Bond randomness for one trial; values depend only on (seed, trial, bond).

    `base` is the trial base word of the contract above.
    """

    __slots__ = ("seed", "trial", "base")

    def __init__(self, seed: int, trial: int) -> None:
        self.seed = seed & _MASK
        self.trial = trial
        self.base = mix64((mix64(self.seed) + ((trial + 1) * _GOLDEN)) & _MASK)

    def uniform(self, edge_key: int) -> float:
        """Uniform [0, 1) draw for the bond with the given address key."""
        return mix64(self.base ^ edge_key) * _TO_UNIT

    def is_open(self, edge_key: int, p: float) -> bool:
        """Bernoulli(p) bond state, `uniform(edge_key) < p`."""
        return mix64(self.base ^ edge_key) * _TO_UNIT < p
