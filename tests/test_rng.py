import os
import threading
import tracemalloc

import numpy as np
import pytest

from lowrank_iht import _rng
from lowrank_iht.quantum import gen_density_matrix, simulate_dataset
from lowrank_iht.trace_model import (
    DesignBatch,
    adjoint_apply,
    apply_design,
    gen_gaussian_design,
    gen_low_rank_theta,
)

_SPLIT_MIN = _rng._SPLIT_MIN
_ROWS = _SPLIT_MIN // 256  # (_ROWS, 16, 16) holds exactly _SPLIT_MIN normals
# below, at and just above the split size; odd totals; totals whose half is
# not a multiple of 4; and two design shapes above it, the larger near twice
_SHAPES = [(_ROWS - 1, 16, 16), (_ROWS, 16, 16), (_ROWS + 1, 16, 16),
           (_SPLIT_MIN + 1,), (_SPLIT_MIN + 6,), (3, 5, _SPLIT_MIN // 15 + 2),
           (2 * _ROWS + 1, 8, 16), (2000, 32, 32)]
# sizes around the former split size 2**18, up to about 2**19 (the default
# matrix grid draws 384,000 and 768,000 normals): each now takes one call
_ONE_CALL_SHAPES = [(1023, 16, 16), (1024, 16, 16), (1025, 16, 16), (262145,),
                    (262150,), (3, 5, 17477), (2049, 8, 16), (500, 32, 32)]


def _seeds(count):
    for s in range(count):
        yield s
        yield np.random.SeedSequence(1000 + s, spawn_key=(s % 3,))


def _single(seed, shape):
    return _rng.make_rng(seed).standard_normal(shape)


@pytest.fixture
def two_cpus(monkeypatch):
    # take the threaded path whatever the machine running the test has
    monkeypatch.setattr(_rng, "_usable_cpus", lambda: 2)


def _margin_bound(s, word):
    # a part's generator enters 8 standard deviations and 256 words below
    # where normal s is expected to start; each normal before the seam reads
    # at least one word, so j stays under twice that margin unless numpy's
    # ziggurat reads a different number of words per normal
    return 2 * (s * _rng._WORDS_MEAN - word)


@pytest.mark.parametrize("shape", _SHAPES + _ONE_CALL_SHAPES, ids=str)
def test_split_draw_is_byte_identical_to_one_draw(two_cpus, monkeypatch, shape):
    seams = []
    seam = _rng._seam

    def spy(seed, out, word, s, stop, state):
        seams.append((s, word, seam(seed, out, word, s, stop, state)))
        return seams[-1][2]

    monkeypatch.setattr(_rng, "_seam", spy)
    cases = 0
    for seed in _seeds(13):
        out = _rng.standard_normal(seed, shape)
        assert out.shape == shape and out.dtype == np.float64
        assert out.tobytes() == _single(seed, shape).tobytes()
        cases += 1
    assert cases == 26
    if shape in _ONE_CALL_SHAPES or np.prod(shape) < _SPLIT_MIN:
        assert np.prod(shape) < _SPLIT_MIN
        assert seams == []
    else:
        # every case drew three parts and proved both of their seams close
        # to the part's entry word
        assert len(seams) == cases * (_rng._PARTS - 1)
        assert None not in [j for _, _, j in seams]
        assert all(j < _margin_bound(s, word) for s, word, j in seams), seams


def test_unproved_seam_falls_back_to_the_head_generator(two_cpus, monkeypatch):
    monkeypatch.setattr(_rng, "_seam", lambda *args: None)
    for shape in ((_ROWS + 1, 16, 16), (_SPLIT_MIN + 6,), (2000, 32, 32)):
        for seed in _seeds(3):
            assert _rng.standard_normal(seed, shape).tobytes() == \
                _single(seed, shape).tobytes()


def test_an_unproved_later_seam_falls_back_to_the_part_before(two_cpus,
                                                              monkeypatch):
    # the last seam fails: the part before it, already joined to the
    # sequential stream, draws everything from that seam on
    seam, failed = _rng._seam, []

    def last_fails(seed, out, word, s, stop, state):
        if stop == out.size:
            failed.append(s)
            return None
        return seam(seed, out, word, s, stop, state)

    monkeypatch.setattr(_rng, "_seam", last_fails)
    for seed in _seeds(3):
        shape = (2000, 32, 32)
        assert _rng.standard_normal(seed, shape).tobytes() == \
            _single(seed, shape).tobytes()
    assert failed == [2 * 2000 * 32 * 32 // 3] * 6


class _NoThreads:
    def __init__(self, *args, **kwargs):
        raise AssertionError("one usable CPU must not start a thread")


def test_one_usable_cpu_takes_the_single_call(monkeypatch):
    monkeypatch.setattr(_rng.threading, "Thread", _NoThreads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    shape = (2000, 32, 32)
    assert _rng.standard_normal(7, shape).tobytes() == _single(7, shape).tobytes()
    # without CPU affinity the CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert _rng.standard_normal(7, shape).tobytes() == _single(7, shape).tobytes()


class _HeadFails:
    """A generator that fails when drawn from off the main thread."""

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator

    def standard_normal(self, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("head draw failed")
        return self.rng.standard_normal(*args, **kwargs)


def test_head_thread_exception_reaches_the_caller(two_cpus, monkeypatch):
    make_rng = _rng.make_rng
    monkeypatch.setattr(_rng, "make_rng", lambda seed: _HeadFails(make_rng(seed)))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="head draw failed"):
        _rng.standard_normal(3, (_ROWS + 1, 16, 16))
    assert threading.active_count() == threads


def test_split_design_draw_makes_no_second_buffer(two_cpus):
    seed = np.random.SeedSequence(7)
    tracemalloc.start()
    try:
        batch = gen_gaussian_design(4000, 64, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * batch.matrices.nbytes
    assert batch.matrices.tobytes() == _single(seed, (4000, 64, 64)).tobytes()


def test_closing_a_seam_shifts_its_part_without_a_temporary(two_cpus, monkeypatch):
    # each part moves down by its j in one overlapping slice assignment; a
    # copy of a part of this d=64, n=4000 design would add 44 MB to the peak
    shifts = []
    seam = _rng._seam

    def spy(*args):
        shifts.append(seam(*args))
        return shifts[-1]

    monkeypatch.setattr(_rng, "_seam", spy)
    seed, shape = np.random.SeedSequence(7), (4000, 64, 64)
    tracemalloc.start()
    try:
        out = _rng.standard_normal(seed, shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(shifts) == _rng._PARTS - 1 and all(shifts), shifts
    assert peak < out.nbytes + 4 * 2 ** 20
    assert out.tobytes() == _single(seed, shape).tobytes()


def _traced_peak(build):
    tracemalloc.start()
    try:
        built = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return built, peak


def test_a_split_gaussian_design_is_held_without_a_copy(two_cpus):
    # the three-part draw returns the array it allocated, not a reshaped view
    # of it, so DesignBatch has no view to copy before it holds the design
    batch, peak = _traced_peak(lambda: gen_gaussian_design(4000, 64, np.random.SeedSequence(7)))
    assert peak < batch.matrices.nbytes + 4 * 2 ** 20
    assert batch.matrices.base is None


def test_an_m5_pauli_design_is_held_without_a_copy():
    # each Kronecker step multiplies into an array it allocates; the last
    # keeps the quarter-size rows of the step before beside it, so 160 m=5
    # settings (80 MiB of rows) peak near 1.25 times the design, and a copy
    # of a view would add another 80 MiB
    dataset = simulate_dataset(gen_density_matrix(32, 1, 0), 160, 4, 1)
    (batch, _), peak = _traced_peak(dataset.to_trace_regression)
    assert batch.matrices.nbytes == 80 * 2 ** 20
    assert peak < 1.3 * batch.matrices.nbytes
    assert batch.matrices.base is None


@pytest.mark.parametrize("dtype", [np.float32, np.complex64], ids=lambda t: np.dtype(t).name)
def test_a_single_precision_design_is_not_copied_on_every_pass(dtype):
    # a d=64, n=4000 design built from float32 or complex64 is converted to
    # double precision once, when it is built; meeting a float64 argument in
    # `@`, the single-precision design was copied to double precision on
    # every pass (a traced peak of 125 MiB per pass for float32, 250 MiB for
    # complex64)
    rng = np.random.default_rng(3)
    shape = (4000, 64, 64)
    if dtype is np.float32:
        mats = rng.standard_normal(shape, dtype=np.float32)
    else:
        mats = rng.standard_normal(shape + (2,), dtype=np.float32).view(np.complex64)[..., 0]
    batch = DesignBatch(mats)
    del mats
    a, v = rng.standard_normal((64, 64)), rng.standard_normal(4000)
    tracemalloc.start()
    try:
        apply_design(batch, a)
        _, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        adjoint_apply(batch, v)
        _, adjoint_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward_peak < 2 ** 20 and adjoint_peak < 2 ** 20, (forward_peak, adjoint_peak)


@pytest.mark.parametrize("seed", [1.5, 1.9, 1.0, True, "7", None, -1,
                                  np.random.default_rng(7)],
                         ids=lambda seed: type(seed).__name__
                         if isinstance(seed, np.random.Generator) else repr(seed))
def test_make_rng_refuses_a_seed_that_is_not_a_nonnegative_int(seed):
    # a float or bool is not truncated to an int and a string is not parsed,
    # so 1.9 cannot silently draw seed 1's stream; a Generator is refused
    # rather than drawn from in place
    with pytest.raises(ValueError, match="seed must be"):
        _rng.make_rng(seed)
    with pytest.raises(ValueError, match="seed must be"):
        gen_low_rank_theta(4, 1, seed)


def test_make_rng_takes_numpy_ints_seed_sequences_and_generators():
    expected = _rng.make_rng(7).random(4).tobytes()
    for seed in (np.int64(7), np.uint8(7), np.random.SeedSequence(7)):
        assert _rng.make_rng(seed).random(4).tobytes() == expected
