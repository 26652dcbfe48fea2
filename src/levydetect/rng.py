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

A generator is restarted on another stream by setting its whole Philox state
(:func:`substream_rows`): the key, the counter, an empty buffer and no cached
uint32 are all of a fresh generator's state, so its draws are bit for bit
those of ``RngStream(...).generator()``. Each thread keeps a pool of the
generators it has built and restarts them for every batch it runs, whatever
the run, so a thread builds a generator only when it needs more at once than
it holds, and no value moves. Work that holds its generators past its batch
leases them out of the pool (:func:`lease_rows`) and gives them back when it
ends (:func:`give_back`), so no generator serves two users at once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStream", "stream_id", "substream_rows", "lease_rows", "give_back",
           "PURPOSE", "BLOCK_REPLICATIONS"]

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
        """Generators of ``components``, indexed by component number (None at
        the numbers not asked for)."""
        gens = [None] * (max(components) + 1)
        for c in components:
            gens[c] = RngStream(self.master_seed, self.stream_id, c).generator()
        return tuple(gens)


class _Pool(threading.local):
    """One thread's generators: ``flat``, those it holds, and per component
    tuple (c_1, ..., c_j) its row tuples over them, row i holding
    ``flat[i * j + k]`` at index c_k (None elsewhere). Every component tuple
    shares ``flat``, so a thread holds as many generators as it has ever had
    out at once."""

    def __init__(self):
        self.flat: list = []
        self.rows: dict = {}


_POOL = _Pool()


def _build(master_seed: int, ids: range, components: Tuple[int, ...],
           positions: range) -> list:
    """Fresh generators at ``positions`` of the rows of ``ids`` laid out flat,
    each on its own stream: position i * j + k is component c_k of ids[i]."""
    width = len(components)
    return [RngStream(master_seed, ids[p // width], components[p % width]).generator()
            for p in positions]


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


def _row(gens, components: Tuple[int, ...]) -> tuple:
    row = [None] * (max(components) + 1)
    for gen, c in zip(gens, components):
        row[c] = gen
    return tuple(row)


def substream_rows(master_seed: int, ids: range, components: Tuple[int, ...]) -> list:
    """The substreams of ``components`` of the streams (master_seed, i), i in
    ``ids``, one tuple per row as :meth:`RngStream.substreams` gives them,
    on generators of this thread's pool: those it holds are restarted in
    place, and only those it lacks are built. The rows are the caller's until
    the thread's next call on its pool, which restarts them."""
    flat, width, n = _POOL.flat, len(components), len(ids)
    held = len(flat)
    flat.extend(_build(master_seed, ids, components, range(held, n * width)))
    rows = _POOL.rows.setdefault(components, [])
    rows.extend(_row(flat[i * width:(i + 1) * width], components)
                for i in range(len(rows), n))
    for k, c in enumerate(components):
        # generator k of each row that the pool held before this call
        _restart(flat[k:min(held, n * width):width], master_seed, ids.start, c)
    return rows[:n]


def lease_rows(master_seed: int, ids: range, components: Tuple[int, ...]) -> list:
    """The rows of :func:`substream_rows`, on generators that leave this
    thread's pool: no later call hands them out until the caller gives them
    back (:func:`give_back`). They are taken from the end of the pool and
    restarted, and built when it runs short; rows never given back simply
    leave the pool."""
    flat, width, n = _POOL.flat, len(components), len(ids)
    kept = max(len(flat) - n * width, 0)
    gens = flat[kept:]
    del flat[kept:]
    for comps, rows in _POOL.rows.items():
        del rows[kept // len(comps):]
    for k, c in enumerate(components):
        _restart(gens[k::width], master_seed, ids.start, c)
    gens += _build(master_seed, ids, components, range(len(gens), n * width))
    return [_row(gens[i * width:(i + 1) * width], components) for i in range(n)]


def give_back(rows: list) -> None:
    """Return the generators of leased rows to this thread's pool. ``rows``
    is emptied, so nothing draws from them again."""
    _POOL.flat.extend(gen for gens in rows for gen in gens if gen is not None)
    rows.clear()
