"""Seed handling.

All randomized operations take an explicit ``seed`` and draw from a Philox
counter-based generator, so independent streams can be derived by spawning
SeedSequences (used by the experiment driver to make results independent of
worker scheduling).

Large standard Gaussian draws (the Gaussian design) go through
``standard_normal``, which fills the array on two threads and still returns
the bytes of one sequential draw. Philox can be entered at any word of its
stream, so a second generator starts at word h while the first draws normals
0..h-1. Every normal consumes at least one word, so the sequential normal h
begins at or after word h, inside the second thread's run. Where exactly is
proved from generator state, not guessed from values: a generator entered at
word h that has drawn j normals must stand at the first thread's final
counter and buffer position. The second half is then shifted down by j in
place, so no second design-sized buffer is made.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from ._checks import check_int

__all__ = ["make_rng", "standard_normal"]

# below this many normals one sequential draw is cheaper than a thread: on
# 2 vCPUs the OpenBLAS workers of the last BLAS call still spin on the second
# core, so a split draw of the default grids' 0.4M-0.8M normals lost to one
# call, while the 16.4M normals of a d=64, n=4000 design still gain
_SPLIT_MIN = 2 ** 20
# float64 entries (1 MiB) moved per slice while closing the seam
_SHIFT_CHUNK = 2 ** 17


def make_rng(seed) -> np.random.Generator:
    """Return a Philox-backed Generator for ``seed``.

    ``seed`` may be a nonnegative int (numpy ints too), a
    ``numpy.random.SeedSequence``, or an existing ``Generator`` (returned
    as-is so callers can thread one stream through several draws). None,
    floats, bools and strings raise ValueError; none is truncated or parsed.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    seed = check_int(seed, "seed", 0)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _entered_at(seed, word: int) -> np.random.Generator:
    """A fresh generator for ``seed`` whose next draw reads word ``word``
    (a multiple of 4: Philox4x64 advances in blocks of four words)."""
    rng = make_rng(seed)
    rng.bit_generator.advance(word // 4)
    return rng


def standard_normal(seed, shape: tuple) -> np.ndarray:
    """Exactly ``make_rng(seed).standard_normal(shape)``, drawn on two threads
    when that pays: at least 2**20 normals, an int or SeedSequence seed, and
    more than one usable CPU. A Generator seed is drawn from in place, so its
    state advances as it would by the single call.
    """
    if isinstance(seed, np.random.Generator):
        return seed.standard_normal(shape)
    total = math.prod(shape)
    if total < _SPLIT_MIN or _usable_cpus() < 2:
        return make_rng(seed).standard_normal(shape)
    head = make_rng(seed)
    h = total // 2 // 4 * 4
    tail = _entered_at(seed, h)
    out = np.empty(total)
    failure = []

    def fill_head():
        try:
            head.standard_normal(out=out[:h])
        except BaseException as exc:
            failure.append(exc)

    worker = threading.Thread(target=fill_head)
    worker.start()
    try:
        tail.standard_normal(out=out[h:])
    finally:
        worker.join()
    if failure:
        raise failure[0]
    j = _seam(seed, out, h, head.bit_generator.state)
    if j is None:
        head.standard_normal(out=out[h:])
    elif j:
        # ascending slices never overwrite a source entry before it is read
        for start in range(h, total - j, _SHIFT_CHUNK):
            stop = min(start + _SHIFT_CHUNK, total - j)
            out[start:stop] = out[start + j:stop + j]
        tail.standard_normal(out=out[total - j:])
    return out.reshape(shape)


def _seam(seed, out: np.ndarray, h: int, head_state: dict) -> int | None:
    """The j for which the tail draw ``out[h:]`` (entered at word h) has its
    j-th normal equal to sequential normal h, or None if no candidate proves.

    Candidates are 0 and one past each tail normal equal to the head's last
    normal ``out[h-1]``. A candidate is accepted only if a generator entered
    at word h stands, after drawing j normals, at the head's final counter and
    buffer position: then tail normal j starts on the word where sequential
    normal h starts, and each later normal reads the same words.
    """
    window = out[h:h + out.size // 16]
    counter, buffer_pos = head_state["state"]["counter"], head_state["buffer_pos"]
    for j in (0, *(np.flatnonzero(window == out[h - 1]) + 1)):
        probe = _entered_at(seed, h)
        probe.standard_normal(int(j))
        state = probe.bit_generator.state
        if state["buffer_pos"] == buffer_pos and np.array_equal(
                state["state"]["counter"], counter):
            return int(j)
    return None
