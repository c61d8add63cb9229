"""Seed handling.

All randomized operations take an explicit ``seed`` and draw from a Philox
counter-based generator, so independent streams can be derived by spawning
SeedSequences (used by the experiment driver to make results independent of
worker scheduling).

Large standard Gaussian draws (the Gaussian design) go through
``standard_normal``, which fills the array in three parts on threads and
still returns the bytes of one sequential draw. The caller draws part 0 and
two threads draw the others. Philox can be entered at any word of its
stream, so the generator of part c (from normal s_c on) enters a little
below the word where sequential normal s_c is expected to start: the
ziggurat reads ``_WORDS_MEAN`` words per normal on average, with variance
``_WORDS_VAR``, and the entry lies 8 standard deviations and 256 words under
s_c * ``_WORDS_MEAN``. Its first j normals are then read from words the
sequential draw spent on earlier normals, and from normal j on it matches
the sequential stream. Where exactly is proved from generator state, not
guessed from values: a generator entered at that word that has drawn j
normals must stand at the final counter and buffer position of part c-1,
and then every later normal reads the same words as the sequential draw.
The seams are proved in order, each part shifted down by its j in place and
its last j normals drawn, so no second design-sized buffer is made. If a
seam does not prove (say the entry lay past normal s_c, under a ziggurat
that reads fewer words per normal), the generator of part c-1 draws
everything from s_c on, which is exact and merely slower.

Why three parts on two or more CPUs: after a threaded BLAS call an OpenBLAS
worker keeps spinning on a core, and with one part per CPU the whole draw
waits for the part that shares that core; a third part lets the scheduler
spread the work over the time the spinner leaves. Three parts were measured
on two CPUs only, so the count does not grow with the CPU count. Draws under
``_SPLIT_MIN`` normals take one call: right after a BLAS call the split
loses a few percent to one call below about 8M normals, and no workload
draws between the default grids' 0.4M-0.8M normals and the 16.4M of a
d=64, n=4000 design. README "Cost and memory" gives the measurements.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from ._checks import check_int

__all__ = ["make_rng", "seed_sequence", "standard_normal"]

# below this many normals one sequential call is drawn (see above)
_SPLIT_MIN = 2 ** 20
# parts a split draw is made in, the caller's and two threads' (see above)
_PARTS = 3
# Philox words numpy's ziggurat reads per standard normal, mean and variance
# (numpy 2.4): a normal reads more than one when the fast path rejects it
_WORDS_MEAN, _WORDS_VAR = 1.022, 0.037


def make_rng(seed) -> np.random.Generator:
    """Return a Philox-backed Generator for ``seed``.

    ``seed`` may be a nonnegative int (numpy ints too) or a
    ``numpy.random.SeedSequence``. None, floats, bools, strings and
    Generators raise ValueError; none is truncated or parsed.
    """
    return np.random.Generator(np.random.Philox(seed_sequence(seed)))


def seed_sequence(seed) -> np.random.SeedSequence:
    """A SeedSequence as-is, or a nonnegative int (numpy ints too) wrapped."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(check_int(seed, "seed", 0))


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


def _entry(s: int) -> int:
    """The word, a multiple of 4, at which the generator drawing from
    sequential normal ``s`` on enters the stream: 8 standard deviations and
    256 words below where normal ``s`` is expected to start."""
    word = s * _WORDS_MEAN - 8.0 * math.sqrt(s * _WORDS_VAR) - 256.0
    return max(0, int(word) // 4 * 4)


def standard_normal(seed, shape: tuple) -> np.ndarray:
    """Exactly ``make_rng(seed).standard_normal(shape)``, drawn in
    ``_PARTS`` parts on threads when that pays: at least 2**20 normals and
    more than one usable CPU.
    """
    total = math.prod(shape)
    if total < _SPLIT_MIN or _usable_cpus() < 2:
        return make_rng(seed).standard_normal(shape)
    bounds = [total * c // _PARTS for c in range(_PARTS + 1)]
    # the word part c enters at is entries[c - 1], for its draw and its proof
    entries = [_entry(s) for s in bounds[1:-1]]
    parts = [make_rng(seed), *(_entered_at(seed, word) for word in entries)]
    out = np.empty(shape)
    flat = out.reshape(total)  # a flat view: the array returned owns its data
    failure = []

    def fill(c):
        try:
            parts[c].standard_normal(out=flat[bounds[c]:bounds[c + 1]])
        except BaseException as exc:
            failure.append(exc)

    workers = [threading.Thread(target=fill, args=(c,)) for c in range(1, _PARTS)]
    for worker in workers:
        worker.start()
    fill(0)
    for worker in workers:
        worker.join()
    if failure:
        raise failure[0]
    for c in range(1, _PARTS):
        s, stop = bounds[c], bounds[c + 1]
        j = _seam(seed, flat, entries[c - 1], s, stop,
                  parts[c - 1].bit_generator.state)
        if j is None:
            parts[c - 1].standard_normal(out=flat[s:])
            break
        # a 1-D copy to a lower address reads each entry before overwriting
        # it, so numpy makes no temporary for this overlapping shift
        flat[s:stop - j] = flat[s + j:stop]
        parts[c].standard_normal(out=flat[stop - j:stop])
    return out


def _seam(seed, out: np.ndarray, word: int, s: int, stop: int,
          state: dict) -> int | None:
    """The j for which the part ``out[s:stop]``, drawn by a generator entered
    at word ``word``, has its j-th normal equal to sequential normal s,
    or None if no candidate proves. ``state`` is that of the generator that
    drew the part before, so it stands just after sequential normal s-1.

    Candidates are 0 and one past each part normal equal to ``out[s-1]``.
    Each normal reads at least one word, so j is at most the number of words
    between the entry and the start of normal s, which ``state`` gives; the
    search looks no further. A candidate is accepted only if a generator
    entered at the same word stands, after drawing j normals, at ``state``'s
    counter and buffer position: then part normal j starts on the word where
    sequential normal s starts, and each later normal reads the same words.
    """
    counter, buffer_pos = state["state"]["counter"], state["buffer_pos"]
    # the words read before normal s, less those below the entry
    reach = 4 * int(counter[0]) + buffer_pos - 4 - word
    window = out[s:min(s + max(reach, 0), stop)]
    for j in (0, *(np.flatnonzero(window == out[s - 1]) + 1)):
        probe = _entered_at(seed, word)
        probe.standard_normal(int(j))
        state = probe.bit_generator.state
        if state["buffer_pos"] == buffer_pos and np.array_equal(
                state["state"]["counter"], counter):
            return int(j)
    return None
