"""Counter-based random number streams.

Every replication owns a Philox stream keyed by (master_seed, stream_id), so a
path is reproducible from its key alone, independent of scheduling, worker
count, or how many other replications ran first. Purpose codes partition the
stream-id space so that distinct estimators never share a stream.

A stream splits into substreams by ``component``: component c is the same
Philox key started at counter [0, 0, 0, c], so component 0 is the stream
itself. A sampler draws each kind of variate (normals, jump times, jump
sizes) from its own component, in order, so the k-th variate of each kind is
a function of k alone: the values do not depend on how many are drawn per
call.

Generators are handed out one way: a lease (:func:`lease`) of the
substreams of a range of streams, by component, which its user gives back
when it ends (:func:`give_back`), so no generator serves two users at once.
Each thread keeps a pool of the generators it has built and restarts them in
place for every lease, whatever the run, so a thread builds a generator only
when its pool runs short. A restart sets the whole
Philox state, the key, the counter, an empty buffer and no cached uint32,
which is all of a fresh generator's state, so its draws are bit for bit those
of ``RngStream(...).generator()`` and no value moves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStream", "stream_id", "lease", "give_back", "PURPOSE",
           "BLOCK_REPLICATIONS"]

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
BLOCK_REPLICATIONS = 1 << _BLOCK_BITS     # the stream ids of one purpose and block


def stream_id(purpose: str, replication: int, block: int = 0) -> int:
    """Compose a 64-bit stream id from (purpose, block, replication)."""
    if replication < 0 or replication >= BLOCK_REPLICATIONS:
        raise ValueError(f"replication index out of range: {replication}")
    if block < 0 or block >= (1 << (_PURPOSE_BITS - _BLOCK_BITS)):
        raise ValueError(f"block index out of range: {block}")
    return (PURPOSE[purpose] << _PURPOSE_BITS) | (block << _BLOCK_BITS) | replication


class _Key(ISeedSequence):
    """Hands Philox its key as the seed state. ``Philox(key=...)`` gives the
    same generator but first builds, and throws away, a ``SeedSequence`` that
    reads OS entropy, which costs more than the rest of the set-up."""

    __slots__ = ("key",)

    def __init__(self, key: Tuple[int, int]):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32) -> Tuple[int, int]:
        # Philox asks for exactly its two uint64 key words and copies them
        # one by one, so plain ints (range-checked there) need no array
        return self.key


@lru_cache(maxsize=16)
def _counter(component: int) -> np.ndarray:
    """The Philox counter [0, 0, 0, component], built once per component;
    Philox copies it, so one read-only array serves every stream."""
    counter = np.array([0, 0, 0, component], dtype=np.uint64)
    counter.flags.writeable = False
    return counter


@dataclass(frozen=True)
class RngStream:
    """A (master_seed, stream_id) pair naming one independent Philox stream,
    and the component naming one of its substreams."""

    master_seed: int
    stream_id: int = 0
    component: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(
            _Key((self.master_seed, self.stream_id)), counter=_counter(self.component)))

    def substreams(self, components: Sequence[int]
                   ) -> Tuple[Optional[np.random.Generator], ...]:
        """Fresh builds of the generators of ``components``, indexed by
        component number (None at the numbers not asked for): the reference
        that a lease's restarted generators draw the bits of."""
        gens = [None] * (max(components) + 1)
        for c in components:
            gens[c] = RngStream(self.master_seed, self.stream_id, c).generator()
        return tuple(gens)


class _Pool(threading.local):
    """One thread's idle generators: those it has built and holds, on any
    stream, to restart for its next lease."""

    def __init__(self):
        self.gens: list = []


_POOL = _Pool()


def _restart(gens, master_seed: int, first_id: int, c: int) -> None:
    """Restart ``gens`` in place, in order, on component c of the streams
    (master_seed, first_id), (master_seed, first_id + 1), ...: each gets the
    whole state of a fresh build, key [master_seed, i], counter [0, 0, 0, c],
    an empty buffer (``buffer_pos`` 4) and no cached uint32."""
    key = [master_seed, first_id]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, c], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for gen in gens:
        gen.bit_generator.state = state     # copied, so the key can move on
        key[1] += 1


def lease(master_seed: int, ids: range, components: Tuple[int, ...]) -> list:
    """The substreams of ``components`` of the streams (master_seed, i), i in
    ``ids``, by component: entry c holds component c's generators in ``ids``
    order, and the components not asked for are None. The generators leave
    this thread's pool, restarted in place, and are built only when it runs
    short; no later lease hands them out until :func:`give_back` returns
    them."""
    pool, n = _POOL.gens, len(ids)
    out = [None] * (max(components) + 1)
    for c in components:
        kept = max(len(pool) - n, 0)
        gens = pool[kept:]
        del pool[kept:]
        _restart(gens, master_seed, ids.start, c)
        out[c] = gens + [RngStream(master_seed, i, c).generator() for i in ids[len(gens):]]
    return out


def give_back(gens: list) -> None:
    """Return the generators of a lease to this thread's pool. ``gens`` is
    emptied, so nothing draws from them again."""
    _POOL.gens.extend(gen for comp in gens if comp is not None for gen in comp)
    gens.clear()
