"""NumPy-backed main memory with word access and a bump allocator."""

from __future__ import annotations

import typing

import numpy

from repro.errors import MemoryError_

#: The SoC is a 64-bit system: one word is 8 bytes.
WORD_BYTES = 8


class MainMemory:
    """The shared main memory (HBM-class) of the SoC.

    Storage is a flat byte array.  Access helpers exist at three
    granularities:

    - single 64-bit words (:meth:`read_word` / :meth:`write_word`) —
      used by MMIO-style and host accesses;
    - float64 vectors (:meth:`read_f64` / :meth:`write_f64`, and the
      copy-free :meth:`view_f64`) — used by experiment setup, result
      checking and the DM cores' functional reads;
    - raw byte blocks (:meth:`read_bytes` / :meth:`write_bytes`) — used
      by the DMA engines' functional copies.

    A bump allocator (:meth:`alloc`) hands out experiment buffers.  It
    frees in stack order: :meth:`mark` notes the allocation point before
    a job stages, and :meth:`release` zeroes and frees everything handed
    out since, so a system that serves job after job never runs out.

    Parameters
    ----------
    size_bytes:
        Capacity.  Defaults suit the experiments in the paper; the SoC
        config can raise it for large sweeps.
    base:
        Base byte address of the memory in the system address map.
    """

    def __init__(self, size_bytes: int = 8 * 1024 * 1024,
                 base: int = 0x8000_0000) -> None:
        if size_bytes <= 0 or size_bytes % WORD_BYTES:
            raise MemoryError_(
                f"memory size must be a positive multiple of {WORD_BYTES} "
                f"bytes, got {size_bytes}"
            )
        self.base = base
        self.size_bytes = size_bytes
        self._data = numpy.zeros(size_bytes, dtype=numpy.uint8)
        self._next_alloc = base

    # ------------------------------------------------------------------
    # Address checking
    # ------------------------------------------------------------------
    def _offset(self, addr: int, nbytes: int) -> int:
        offset = addr - self.base
        if offset < 0 or offset + nbytes > self.size_bytes:
            raise MemoryError_(
                f"access of {nbytes} bytes at {addr:#x} falls outside main "
                f"memory [{self.base:#x}, {self.base + self.size_bytes:#x})"
            )
        return offset

    def contains(self, addr: int) -> bool:
        """Whether the byte address falls inside this memory."""
        return self.base <= addr < self.base + self.size_bytes

    # ------------------------------------------------------------------
    # Word access
    # ------------------------------------------------------------------
    def read_word(self, addr: int) -> int:
        """Read one aligned 64-bit word as an unsigned integer."""
        self._check_aligned(addr)
        offset = self._offset(addr, WORD_BYTES)
        return int(self._data[offset:offset + WORD_BYTES].view(numpy.uint64)[0])

    def write_word(self, addr: int, value: int) -> None:
        """Write one aligned 64-bit word (value taken modulo 2**64)."""
        self._check_aligned(addr)
        offset = self._offset(addr, WORD_BYTES)
        self._data[offset:offset + WORD_BYTES].view(numpy.uint64)[0] = (
            value % (1 << 64)
        )

    def read_words(self, addr: int, nwords: int) -> list:
        """Read ``nwords`` consecutive aligned words (one array slice).

        Equivalent to ``nwords`` :meth:`read_word` calls; burst reads
        use it to pay the bounds check and view construction once.
        """
        self._check_aligned(addr)
        offset = self._offset(addr, nwords * WORD_BYTES)
        return self._data[offset:offset + nwords * WORD_BYTES] \
            .view(numpy.uint64).tolist()

    def write_words(self, addr: int, values: typing.Sequence[int]) -> None:
        """Write consecutive aligned words (one array slice).

        Equivalent to one :meth:`write_word` per value (including the
        modulo-2**64 wrap); bulk store paths use it to pay the bounds
        check and view construction once.
        """
        self._check_aligned(addr)
        nbytes = len(values) * WORD_BYTES
        offset = self._offset(addr, nbytes)
        self._data[offset:offset + nbytes].view(numpy.uint64)[:] = [
            value % (1 << 64) for value in values]

    @staticmethod
    def _check_aligned(addr: int) -> None:
        if addr % WORD_BYTES:
            raise MemoryError_(f"unaligned word access at {addr:#x}")

    # ------------------------------------------------------------------
    # Vector access
    # ------------------------------------------------------------------
    def read_f64(self, addr: int, count: int) -> numpy.ndarray:
        """Read ``count`` float64 values starting at ``addr`` (a copy)."""
        self._check_aligned(addr)
        offset = self._offset(addr, count * WORD_BYTES)
        return self._data[offset:offset + count * WORD_BYTES] \
            .view(numpy.float64).copy()

    def view_f64(self, addr: int, count: int) -> numpy.ndarray:
        """Read ``count`` float64 values starting at ``addr`` as a
        read-only view, which later writes to that range show through.
        For a reader that is done with it before anything writes
        there."""
        self._check_aligned(addr)
        offset = self._offset(addr, count * WORD_BYTES)
        view = self._data[offset:offset + count * WORD_BYTES] \
            .view(numpy.float64)
        view.flags.writeable = False
        return view

    def write_f64(self, addr: int, values: numpy.ndarray) -> None:
        """Write a float64 vector starting at ``addr``."""
        self._check_aligned(addr)
        values = numpy.asarray(values, dtype=numpy.float64)
        nbytes = values.size * WORD_BYTES
        offset = self._offset(addr, nbytes)
        self._data[offset:offset + nbytes] = values.view(numpy.uint8)

    # ------------------------------------------------------------------
    # Byte-block access (DMA functional copies)
    # ------------------------------------------------------------------
    def read_bytes(self, addr: int, nbytes: int) -> numpy.ndarray:
        """Read a raw byte block (a copy)."""
        offset = self._offset(addr, nbytes)
        return self._data[offset:offset + nbytes].copy()

    def write_bytes(self, addr: int, data: numpy.ndarray) -> None:
        """Write a raw byte block."""
        data = numpy.asarray(data, dtype=numpy.uint8)
        offset = self._offset(addr, data.size)
        self._data[offset:offset + data.size] = data

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = WORD_BYTES) -> int:
        """Reserve ``nbytes`` and return the base address.

        Raises
        ------
        MemoryError_
            If the request is invalid or memory is exhausted.
        """
        if nbytes <= 0:
            raise MemoryError_(f"cannot allocate {nbytes} bytes")
        if align <= 0 or align & (align - 1):
            raise MemoryError_(f"alignment must be a power of two, got {align}")
        addr = (self._next_alloc + align - 1) & ~(align - 1)
        if addr + nbytes > self.base + self.size_bytes:
            padding = addr - self._next_alloc
            free = self.base + self.size_bytes - addr
            raise MemoryError_(
                f"out of memory: {nbytes} bytes requested, {free} free "
                f"after {padding} bytes of alignment padding "
                f"(align={align})"
            )
        self._next_alloc = addr + nbytes
        return addr

    def alloc_f64(self, count: int) -> int:
        """Reserve space for ``count`` float64 values."""
        return self.alloc(count * WORD_BYTES)

    def reset_allocator(self) -> None:
        """Forget all allocations (storage contents are untouched)."""
        self._next_alloc = self.base

    def mark(self) -> int:
        """The current allocation point, for a later :meth:`release`."""
        return self._next_alloc

    def release(self, mark: int) -> None:
        """Zero and free every allocation made since ``mark``.

        Allocations free in stack order, so everything above ``mark``
        goes at once.  Zeroing keeps the invariant :meth:`reset` relies
        on: every byte above the allocation point is zero.

        Raises
        ------
        MemoryError_
            If ``mark`` is not an allocation point at or below the
            current one.
        """
        if not self.base <= mark <= self._next_alloc:
            raise MemoryError_(
                f"cannot release to {mark:#x}: the allocator is at "
                f"{self._next_alloc:#x} (base {self.base:#x})")
        self._data[mark - self.base:self._next_alloc - self.base] = 0
        self._next_alloc = mark

    def reset(self) -> None:
        """Restore boot state: allocator rewound, contents zeroed.

        Only the allocated prefix is cleared: every functional write
        since boot landed below ``_next_alloc`` (or was zeroed by
        :meth:`release`), and zeroing just that prefix is much cheaper
        than re-zeroing a multi-megabyte array per sweep point.
        """
        self.release(self.base)

    @property
    def allocated_bytes(self) -> int:
        """Bytes handed out by the allocator so far (including padding)."""
        return self._next_alloc - self.base
