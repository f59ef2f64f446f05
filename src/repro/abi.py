"""Host/device job-descriptor ABI.

The host writes a job descriptor into shared memory and rings each
selected cluster's mailbox with its pointer; the clusters' DM cores
fetch and decode it.  Both sides of the system (host runtime in
:mod:`repro.runtime`, device runtime in :mod:`repro.cluster.dm_core`)
share this encoding, so it lives in its own dependency-free module.

Layout (64-bit words, in order)::

    0  kernel_id          index into the sorted kernel registry
    1  n                  problem size (work items)
    2  num_clusters       M, the offload width
    3  first_cluster      base of the cluster range [first, first+M)
    4  sync_mode          SYNC_MODE_AMO or SYNC_MODE_SYNCUNIT
    5  completion_addr    AMO flag address / sync-unit increment register
    6  exec_mode          EXEC_MODE_PHASED or EXEC_MODE_DOUBLE_BUFFERED
    7  num_scalars        S
    8..8+S                scalar arguments as raw IEEE-754 bits
    ...                   input buffer addresses (kernel.input_names order)
    ...                   output buffer addresses (kernel.output_names order)
"""

from __future__ import annotations

import dataclasses
import struct
import types
import typing

from repro.errors import OffloadError
from repro.kernels.base import Kernel
from repro.kernels.registry import get_kernel, kernel_names

#: Completion via atomic fetch-and-add on a shared-memory flag that the
#: host polls (baseline).
SYNC_MODE_AMO = 0
#: Completion via posted write to the credit-counter sync unit, which
#: interrupts the host at threshold (the paper's dedicated hardware).
SYNC_MODE_SYNCUNIT = 1

#: Device runtime stages the whole slice, computes, writes back (the
#: paper's protocol, whose phases Eq. 1 adds up).
EXEC_MODE_PHASED = 0
#: Device runtime pipelines chunked DMA with compute (double buffering),
#: overlapping the memory term with the compute term.
EXEC_MODE_DOUBLE_BUFFERED = 1

_HEADER_WORDS = 8


def kernel_id(name: str) -> int:
    """Stable numeric ID of a kernel (its index in the sorted registry)."""
    names = kernel_names()
    try:
        return names.index(name)
    except ValueError:
        raise OffloadError(f"kernel {name!r} is not registered") from None


def kernel_from_id(ident: int) -> Kernel:
    """Inverse of :func:`kernel_id`."""
    names = kernel_names()
    if not 0 <= ident < len(names):
        raise OffloadError(f"invalid kernel id {ident}")
    return get_kernel(names[ident])


def float_to_bits(value: float) -> int:
    """IEEE-754 bit pattern of a float64, as an unsigned word."""
    return struct.unpack("<Q", struct.pack("<d", float(value)))[0]


def bits_to_float(bits: int) -> float:
    """Inverse of :func:`float_to_bits`."""
    return struct.unpack("<d", struct.pack("<Q", bits % (1 << 64)))[0]


@dataclasses.dataclass(frozen=True)
class JobDescriptor:
    """A fully-specified offload job, as both sides of the ABI see it."""

    kernel_name: str
    n: int
    num_clusters: int
    sync_mode: int
    completion_addr: int
    scalars: typing.Mapping[str, float]
    input_addrs: typing.Mapping[str, int]
    output_addrs: typing.Mapping[str, int]
    exec_mode: int = EXEC_MODE_PHASED
    #: Base of the cluster range the job runs on: clusters
    #: ``[first_cluster, first_cluster + num_clusters)``.  Non-zero for
    #: space-shared concurrent offloads.
    first_cluster: int = 0

    def __post_init__(self) -> None:
        kernel = get_kernel(self.kernel_name)  # raises if unknown
        if self.n <= 0:
            raise OffloadError(f"job size must be positive, got {self.n}")
        if self.num_clusters <= 0:
            raise OffloadError(
                f"need at least one cluster, got {self.num_clusters}")
        if self.first_cluster < 0:
            raise OffloadError(
                f"first cluster must be >= 0, got {self.first_cluster}")
        if self.sync_mode not in (SYNC_MODE_AMO, SYNC_MODE_SYNCUNIT):
            raise OffloadError(f"invalid sync mode {self.sync_mode}")
        if self.exec_mode not in (EXEC_MODE_PHASED,
                                  EXEC_MODE_DOUBLE_BUFFERED):
            raise OffloadError(f"invalid exec mode {self.exec_mode}")
        if set(self.scalars) != set(kernel.scalar_names):
            raise OffloadError(
                f"scalars {sorted(self.scalars)} do not match kernel "
                f"{self.kernel_name!r} ({list(kernel.scalar_names)})")
        if set(self.input_addrs) != set(kernel.input_names):
            raise OffloadError(
                f"input buffers {sorted(self.input_addrs)} do not match "
                f"kernel {self.kernel_name!r} ({list(kernel.input_names)})")
        if set(self.output_addrs) != set(kernel.output_names):
            raise OffloadError(
                f"output buffers {sorted(self.output_addrs)} do not match "
                f"kernel {self.kernel_name!r} ({list(kernel.output_names)})")

    @property
    def kernel(self) -> Kernel:
        """The kernel instance this job runs."""
        return get_kernel(self.kernel_name)

    @property
    def words(self) -> int:
        """Descriptor size in 64-bit words."""
        kernel = self.kernel
        return (_HEADER_WORDS + len(kernel.scalar_names)
                + len(kernel.input_names) + len(kernel.output_names))


def descriptor_words(kernel: Kernel) -> int:
    """Descriptor size in words for a job running ``kernel``."""
    return (_HEADER_WORDS + len(kernel.scalar_names)
            + len(kernel.input_names) + len(kernel.output_names))


def descriptor_length(kernel_word: int) -> int:
    """Descriptor size in words, read off its first (kernel id) word."""
    return descriptor_words(kernel_from_id(kernel_word))


def encode_descriptor(desc: JobDescriptor) -> typing.List[int]:
    """Serialize a descriptor to the word list the host stores to memory."""
    kernel = desc.kernel
    words = [
        kernel_id(desc.kernel_name),
        desc.n,
        desc.num_clusters,
        desc.first_cluster,
        desc.sync_mode,
        desc.completion_addr,
        desc.exec_mode,
        len(kernel.scalar_names),
    ]
    words.extend(float_to_bits(desc.scalars[name])
                 for name in kernel.scalar_names)
    words.extend(desc.input_addrs[name] for name in kernel.input_names)
    words.extend(desc.output_addrs[name] for name in kernel.output_names)
    return words


#: Decoded descriptors keyed on (registered kernel count, words).  Every
#: cluster of an M-wide job fetches the same words, so one decode
#: serves the whole job; the kernel count keys the id space, which only
#: grows.  A plain launch's members already share one decode through
#: their :class:`~repro.cluster.dm_core.LaunchContext`, so this serves
#: the other launches (concurrent, overlapped, reference paths).  Reuse
#: spans one launch, so a few entries suffice; bounded by wholesale
#: clearing.
_DECODED: typing.Dict[typing.Tuple[int, ...], JobDescriptor] = {}
_DECODED_MAX = 32


def decode_descriptor(words: typing.Sequence[int]) -> JobDescriptor:
    """Parse the word list a DM core fetched back into a descriptor.

    The result is frozen and memoized on the words, so clusters that
    fetch the same descriptor share one decode.

    Raises
    ------
    OffloadError
        On truncated or inconsistent encodings.
    """
    key = (len(kernel_names()), *words)
    desc = _DECODED.get(key)
    if desc is None:
        desc = _decode(words)
        if len(_DECODED) >= _DECODED_MAX:
            _DECODED.clear()
        _DECODED[key] = desc
    return desc


def _decode(words: typing.Sequence[int]) -> JobDescriptor:
    if len(words) < _HEADER_WORDS:
        raise OffloadError(
            f"descriptor truncated: {len(words)} < {_HEADER_WORDS} words")
    kernel = kernel_from_id(words[0])
    (n, num_clusters, first_cluster, sync_mode, completion_addr, exec_mode,
     num_scalars) = words[1:8]
    if num_scalars != len(kernel.scalar_names):
        raise OffloadError(
            f"descriptor scalar count {num_scalars} does not match kernel "
            f"{kernel.name!r} ({len(kernel.scalar_names)})")
    expected = descriptor_words(kernel)
    if len(words) < expected:
        raise OffloadError(
            f"descriptor truncated: {len(words)} < {expected} words")
    cursor = _HEADER_WORDS
    scalars = {}
    for name in kernel.scalar_names:
        scalars[name] = bits_to_float(words[cursor])
        cursor += 1
    input_addrs = {}
    for name in kernel.input_names:
        input_addrs[name] = words[cursor]
        cursor += 1
    output_addrs = {}
    for name in kernel.output_names:
        output_addrs[name] = words[cursor]
        cursor += 1
    # Read-only views: the memo hands one descriptor to every cluster.
    return JobDescriptor(
        kernel_name=kernel.name, n=n, num_clusters=num_clusters,
        first_cluster=first_cluster, sync_mode=sync_mode,
        completion_addr=completion_addr, exec_mode=exec_mode,
        scalars=types.MappingProxyType(scalars),
        input_addrs=types.MappingProxyType(input_addrs),
        output_addrs=types.MappingProxyType(output_addrs),
    )
