"""Unit tests for MainMemory storage, vectors, and the allocator."""

import numpy
import pytest

from repro.errors import MemoryError_
from repro.mem import MainMemory, WORD_BYTES


BASE = 0x8000_0000


def make_memory(size=4096):
    return MainMemory(size_bytes=size, base=BASE)


def test_word_roundtrip():
    mem = make_memory()
    mem.write_word(BASE + 16, 0xDEADBEEF)
    assert mem.read_word(BASE + 16) == 0xDEADBEEF


def test_words_default_to_zero():
    mem = make_memory()
    assert mem.read_word(BASE) == 0


def test_word_wraps_modulo_64_bits():
    mem = make_memory()
    mem.write_word(BASE, (1 << 64) + 5)
    assert mem.read_word(BASE) == 5


def test_unaligned_word_access_rejected():
    mem = make_memory()
    with pytest.raises(MemoryError_):
        mem.read_word(BASE + 3)
    with pytest.raises(MemoryError_):
        mem.write_word(BASE + 5, 1)


def test_out_of_range_access_rejected():
    mem = make_memory(size=64)
    with pytest.raises(MemoryError_):
        mem.read_word(BASE + 64)
    with pytest.raises(MemoryError_):
        mem.read_word(BASE - WORD_BYTES)
    with pytest.raises(MemoryError_):
        mem.write_word(BASE + 64, 1)


def test_f64_vector_roundtrip():
    mem = make_memory()
    values = numpy.array([1.5, -2.25, 3.0e10, 0.0])
    mem.write_f64(BASE + 8, values)
    numpy.testing.assert_array_equal(mem.read_f64(BASE + 8, 4), values)


def test_f64_read_returns_copy():
    mem = make_memory()
    mem.write_f64(BASE, numpy.array([1.0]))
    view = mem.read_f64(BASE, 1)
    view[0] = 99.0
    assert mem.read_f64(BASE, 1)[0] == 1.0


def test_f64_view_is_read_only_and_live():
    mem = make_memory()
    mem.write_f64(BASE, numpy.array([1.0, 2.0]))
    view = mem.view_f64(BASE, 2)
    with pytest.raises(ValueError):
        view[0] = 99.0
    mem.write_f64(BASE + 8, numpy.array([5.0]))
    numpy.testing.assert_array_equal(view, [1.0, 5.0])
    with pytest.raises(MemoryError_):
        mem.view_f64(BASE + 4, 1)


def test_f64_out_of_range_rejected():
    mem = make_memory(size=64)
    with pytest.raises(MemoryError_):
        mem.write_f64(BASE + 32, numpy.zeros(5))


def test_byte_block_roundtrip():
    mem = make_memory()
    block = numpy.arange(32, dtype=numpy.uint8)
    mem.write_bytes(BASE + 100, block)
    numpy.testing.assert_array_equal(mem.read_bytes(BASE + 100, 32), block)


def test_bytes_and_words_share_storage():
    mem = make_memory()
    mem.write_word(BASE, 0x0102030405060708)
    block = mem.read_bytes(BASE, 8)
    # Little-endian layout.
    assert list(block) == [8, 7, 6, 5, 4, 3, 2, 1]


def test_alloc_returns_disjoint_aligned_buffers():
    mem = make_memory()
    a = mem.alloc(24)
    b = mem.alloc(10)
    c = mem.alloc(8, align=64)
    assert a % WORD_BYTES == 0
    assert b >= a + 24
    assert c % 64 == 0
    assert c >= b + 10


def test_alloc_f64():
    mem = make_memory()
    addr = mem.alloc_f64(16)
    mem.write_f64(addr, numpy.ones(16))
    assert mem.read_f64(addr, 16).sum() == 16.0


def test_alloc_exhaustion():
    mem = make_memory(size=64)
    mem.alloc(48)
    with pytest.raises(MemoryError_):
        mem.alloc(32)


def test_alloc_invalid_arguments():
    mem = make_memory()
    with pytest.raises(MemoryError_):
        mem.alloc(0)
    with pytest.raises(MemoryError_):
        mem.alloc(8, align=3)


def test_reset_allocator_reuses_space():
    mem = make_memory(size=64)
    first = mem.alloc(64)
    mem.reset_allocator()
    assert mem.alloc(64) == first


def test_allocated_bytes_tracks_padding():
    mem = make_memory()
    mem.alloc(4)          # pads to 8 on the next aligned alloc
    mem.alloc(8, align=16)
    assert mem.allocated_bytes >= 12


def test_invalid_size_rejected():
    with pytest.raises(MemoryError_):
        MainMemory(size_bytes=0)
    with pytest.raises(MemoryError_):
        MainMemory(size_bytes=12)  # not a multiple of the word size


def test_contains():
    mem = make_memory(size=64)
    assert mem.contains(BASE)
    assert mem.contains(BASE + 63)
    assert not mem.contains(BASE + 64)
    assert not mem.contains(BASE - 1)
