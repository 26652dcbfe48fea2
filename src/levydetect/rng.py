"""Counter-based random number streams.

Every replication owns a Philox stream keyed by (master_seed, stream_id), so a
path is reproducible from its key alone, independent of scheduling, worker
count, or how many other replications ran first. Purpose codes partition the
stream-id space so that distinct estimators never share a stream.

A stream splits into substreams by ``component``: component c is the same
Philox key started at counter [0, 0, 0, c], so component 0 is the stream
itself. A sampler draws each kind of variate (normals, jump counts, marks)
from its own component, which makes every draw a function of its step index
alone: the values do not depend on how many steps are drawn per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStream", "stream_id", "PURPOSE"]

# purpose code -> high bits of the stream id; blocks of 2^40 replications
PURPOSE = {
    "path": 0,
    "arl": 1,
    "delay": 2,
    "lower_bound": 3,
    "martingale": 4,
    "converge": 5,
    "calibrate": 6,
}

_BLOCK_BITS = 40
_PURPOSE_BITS = 56


def stream_id(purpose: str, replication: int, block: int = 0) -> int:
    """Compose a 64-bit stream id from (purpose, block, replication)."""
    if replication < 0 or replication >= (1 << _BLOCK_BITS):
        raise ValueError(f"replication index out of range: {replication}")
    if block < 0 or block >= (1 << (_PURPOSE_BITS - _BLOCK_BITS)):
        raise ValueError(f"block index out of range: {block}")
    return (PURPOSE[purpose] << _PURPOSE_BITS) | (block << _BLOCK_BITS) | replication


class _Key(ISeedSequence):
    """Hands Philox its key as the seed state. ``Philox(key=...)`` gives the
    same generator but first builds, and throws away, a ``SeedSequence`` that
    reads OS entropy, which costs more than the rest of the set-up."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.key        # Philox asks for exactly its two uint64 key words


@dataclass(frozen=True)
class RngStream:
    """A (master_seed, stream_id) pair naming one independent Philox stream,
    and the component naming one of its substreams."""

    master_seed: int
    stream_id: int = 0
    component: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        counter = np.array([0, 0, 0, self.component], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_Key(key), counter=counter))

    def substreams(self, components: Sequence[int]
                   ) -> Tuple[Optional[np.random.Generator], ...]:
        """Generators of ``components``, indexed by component number (None at
        the numbers not asked for)."""
        gens = [None] * (max(components) + 1)
        for c in components:
            gens[c] = RngStream(self.master_seed, self.stream_id, c).generator()
        return tuple(gens)
