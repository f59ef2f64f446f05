"""The DM-core device runtime: serving offloaded jobs.

This is the device-side half of the offload protocol.  Each cluster's
data-mover core runs :func:`serve_jobs` forever:

1. sleep clock-gated until the host rings the mailbox with a job
   pointer;
2. fetch the job descriptor from shared memory (one or two burst
   reads), decode it, and compute this cluster's work slice;
3. stage the slice's working set into the TCDM via the DMA engine
   (contending with every other cluster on the shared read channel);
4. release the worker cores; every core processes its sub-slice and
   meets the DM core at the hardware barrier;
5. write results back via the shared write channel;
6. signal completion — an atomic fetch-and-add on the descriptor's flag
   (baseline) or a posted write to the credit-counter sync unit
   (extended), per the descriptor's ``sync_mode``.

Functional state changes (reading operands, writing results) happen at
the simulated instants the corresponding transfers complete, so memory
always holds an architecturally-consistent snapshot.
"""

from __future__ import annotations

import functools
import typing

from repro import abi, flags
from repro.errors import OffloadError
from repro.kernels.base import WorkSlice, split_range

if typing.TYPE_CHECKING:
    from repro.cluster.cluster import Cluster

#: Words fetched by the first descriptor burst (one 64-byte line).
FIRST_BURST_WORDS = 8


def serve_jobs(cluster: "Cluster") -> typing.Generator:
    """The DM core's main loop (a simulation process body).

    The loop body below *inlines* the default fast path of every phase
    — doorbell, descriptor fetch, fabric barrier, DMA staging, compute
    phase, completion — into this single generator frame, parking on
    the same events the reference helpers park on.  A generator resume
    re-activates every frame in its ``yield from`` chain, so the
    two-to-four-deep helper chain would be the dominant per-job
    interpreter cost; the flat frame pays for one activation per park.
    A phased job with a non-empty slice parks seven times:

    1. on the mailbox, until the doorbell;
    2. once for wake-up, descriptor fetch and decode together (see
       below);
    3. on the fabric barrier's release;
    4. on the DMA-in reservation;
    5. on the compute phase's barrier crossing;
    6. on the DMA-out reservation;
    7. on the completion signal (the AMO response, or the posted
       write's port release).

    Cycle identity with the reference comes from issuing the identical
    primitive calls (the non-generator forms ``job_event`` /
    ``book_arrival`` / ``reserve_in`` / ``compute_phase_fast``) in the
    identical order.

    **Closed-form descriptor fetch.**  At the doorbell (cycle ``T``)
    :meth:`~repro.noc.xbar.Interconnect.cluster_read_descriptor`
    commits both descriptor bursts at once: it logs them, charges the
    port, and returns the words and the cycle ``F0`` the second burst
    completes.  The "awake" record is a plain scheduler callback at
    ``T + W`` (``W`` the wake latency), and the core parks once, until
    ``F = F0 + D`` (``D`` the decode latency).  The reference chain
    (wake delay, two burst callback chains, decode delay) runs instead
    when the launch is not a *plain* one — one job, no host work, a span
    whose clusters share one ``W`` and one ``D``, a nonzero NoC request
    latency (the runtime decides per launch; see
    :class:`~repro.runtime.protocol.OffloadRuntime`) — or when the
    interconnect refuses (busy port, descriptor outside main memory).
    Every member of a job fetches the same descriptor over an idle
    port (the host rings only after observing the previous completion
    signal, which has left the port by then), so a job's DM cores all
    take the same path.

    *No same-cycle tie reorders.*  The awake callback is created where
    the reference creates its wake-delay entry: in the doorbell
    resume, with nothing scheduled in between; with ``W = 0`` both
    record "awake" in that resume.  The decode-done wake-up ``Q`` has
    the reference's kind: a direct process resume when ``D > 0`` (the
    reference's decode delay), else a timer whose trigger queues the
    resume (the reference's burst response).  The one thing that moves
    is ``Q``'s creation, from the reference's ``C`` back to ``T``.
    ``C`` is ``F0`` when ``D > 0``; when ``D = 0`` it is the second
    burst's data phase, ``T + W + P`` for a constant ``P`` (the first
    burst plus the port and request latencies).  So ``Q`` can change
    places only with an entry ``X`` due at ``F`` and created in
    ``(T, C]``.  In a plain launch ``X`` belongs to the job's own DM
    cores or to the host:

    - ``X`` is another member's decode-done wake-up.  Every member has
      the same descriptor, ``W`` and ``D``, so ``F - T`` is one
      constant and equal ``F`` means equal ``T``: both chains then run
      in lockstep from doorbell resumes in mailbox order, which is
      also the order of the closed form's doorbell resumes.  (Every
      descriptor is at least ten words — eight header words, an input
      and an output — so every fetch is two bursts.)
    - ``X`` is a member's awake callback: it only records.
    - ``X`` is the host's.  A member's decode-done step records
      "decoded", computes its slice and books an arrival on the job's
      fabric-barrier group, a counter only members touch.  Only the
      *completing* arrival schedules anything — the release chain —
      and everything that chain leads to (DMA on the memory channels,
      compute, the completion AMO or sync-unit write) uses state the
      host never touches, except two hand-offs: the sync unit's
      interrupt, which finds the host parked in WFI, and the AMO's
      flag write, which the host may read in the same cycle.  That
      read's data phase runs from the time heap (nonzero request
      latency), ahead of the AMO write that the zero-delay queue
      delivers, whatever the two chains' ranks — the same argument
      the poll fast path rests on.

    So only the trace's order *within* one cycle across sources can
    differ, like the NoC log's list order; neither is part of the
    contract.  ``tests/property/test_fastforward_identity.py`` checks
    the reference (``REPRO_NAIVE_CHANNEL``) against this path with
    ``W`` and ``D`` drawn from zero and their defaults.

    The ``REPRO_NAIVE_CHANNEL`` / ``REPRO_NAIVE_BARRIER`` gates and the
    double-buffered exec mode delegate to the reference helpers
    (:func:`_run_job` and friends), which remain the readable
    specification of the protocol.  Each cluster adds every job's
    doorbell-to-completion time to ``cluster.dm_active_cycles`` (the
    energy meter's DM-core counter).
    """
    sim = cluster.sim
    mailbox = cluster.mailbox
    noc = cluster.noc
    dma = cluster.dma
    memory = cluster.memory
    record = cluster.trace.record
    cluster_id = cluster.cluster_id
    label = f"cluster{cluster_id}"
    fetched_name = f"{label}.fetched"
    awake = functools.partial(record, label, "awake")
    wake_latency = cluster.wake_latency
    decode_cycles = cluster.dm_decode_cycles
    fabric = cluster.fabric_barrier
    while True:
        pointer = yield mailbox.job_event()
        doorbell = sim.now
        if flags.naive_channel() or flags.naive_barrier():
            # Reference path: simulate every phase's event loop.
            yield from _run_job(cluster, pointer)
            cluster.jobs_completed += 1
            cluster.dm_active_cycles += sim.now - doorbell
            continue

        record(label, "doorbell", pointer)
        fetched = noc.cluster_read_descriptor(
            cluster_id, pointer, doorbell + wake_latency,
            FIRST_BURST_WORDS, abi.descriptor_length)
        if fetched is not None:
            words, fetched_at = fetched
            desc = abi.decode_descriptor(words)
            if wake_latency:
                sim.schedule(wake_latency, awake, None)
            else:
                record(label, "awake")
            if decode_cycles:
                yield fetched_at + decode_cycles - doorbell
            else:
                yield sim.timer(fetched_at - doorbell, fetched_name)
        else:
            if wake_latency:
                yield wake_latency
            record(label, "awake")
            desc = yield from _fetch_descriptor(cluster, pointer)
            if decode_cycles:
                yield decode_cycles
        record(label, "decoded", desc.kernel_name)

        kernel = desc.kernel
        work = _work_slice(cluster, desc, label)

        if fabric is not None:
            yield fabric.book_arrival(desc.num_clusters,
                                      group=desc.first_cluster)
            record(label, "start_barrier_crossed")

        if not work.empty:
            if desc.exec_mode == abi.EXEC_MODE_DOUBLE_BUFFERED:
                yield from _execute_double_buffered(
                    cluster, desc, kernel, work)
            else:
                # The phased protocol (see _execute_phased).
                _check_footprint(cluster, kernel, work, desc.n, label)
                bytes_in = kernel.slice_bytes_in(work.lo, work.hi, desc.n)
                done = dma.reserve_in(bytes_in)
                if done is not None:
                    yield done
                else:
                    yield from dma.transfer_in(bytes_in)
                inputs = {
                    name: memory.read_f64(
                        desc.input_addrs[name],
                        kernel.input_length(name, desc.n))
                    for name in kernel.input_names
                }
                record(label, "dma_in_done", bytes_in)

                yield cluster.compute_phase_fast(kernel, work, desc.n)
                fragments = kernel.compute_slice(
                    desc.n, desc.scalars, inputs, work)
                record(label, "compute_done")

                bytes_out = kernel.slice_bytes_out(work.lo, work.hi, desc.n)
                done = dma.reserve_out(bytes_out)
                if done is not None:
                    yield done
                else:
                    yield from dma.transfer_out(bytes_out)
                for name, (start, values) in fragments.items():
                    memory.write_f64(
                        desc.output_addrs[name] + 8 * start, values)
                record(label, "dma_out_done", bytes_out)

        # Signal completion (see _signal_completion).
        if desc.sync_mode == abi.SYNC_MODE_AMO:
            yield noc.cluster_amo_add(cluster_id, desc.completion_addr, 1)
        else:
            yield noc.cluster_write(
                cluster_id, desc.completion_addr, 1).issued
        record(label, "completion_signalled")
        cluster.jobs_completed += 1
        cluster.dm_active_cycles += sim.now - doorbell


def _work_slice(cluster: "Cluster", desc: abi.JobDescriptor,
                label: str) -> WorkSlice:
    """This cluster's slice of the job, validating the dispatch range."""
    slices = split_range(desc.n, desc.num_clusters)
    rank = cluster.cluster_id - desc.first_cluster
    if not 0 <= rank < desc.num_clusters:
        raise OffloadError(
            f"{label} received a job for clusters "
            f"[{desc.first_cluster}, "
            f"{desc.first_cluster + desc.num_clusters}); the host "
            "dispatched outside the job's range"
        )
    return slices[rank]


def _check_footprint(cluster: "Cluster", kernel, work, n: int,
                     label: str) -> None:
    """Reject slices whose working set cannot fit the TCDM."""
    footprint = kernel.slice_tcdm_bytes(work.lo, work.hi, n)
    if footprint > cluster.tcdm.size_bytes:
        raise OffloadError(
            f"{label}: slice working set of {footprint} bytes exceeds "
            f"the {cluster.tcdm.size_bytes}-byte TCDM; offload to more "
            "clusters or tile the job"
        )


def _run_job(cluster: "Cluster", pointer: int) -> typing.Generator:
    label = f"cluster{cluster.cluster_id}"
    cluster.trace.record(label, "doorbell", pointer)

    # Clock-ungate latency before the DM core executes its first
    # instruction after the doorbell.
    if cluster.wake_latency:
        yield cluster.wake_latency
    cluster.trace.record(label, "awake")

    desc = yield from _fetch_descriptor(cluster, pointer)
    if cluster.dm_decode_cycles:
        yield cluster.dm_decode_cycles
    cluster.trace.record(label, "decoded", desc.kernel_name)

    kernel = desc.kernel
    work = _work_slice(cluster, desc, label)

    # Synchronize the job start across all participating clusters: the
    # collective DMA/compute phases must not begin before every member
    # holds its arguments (see repro.soc.fabricbarrier).  This is why
    # the baseline's sequential dispatch cost adds to the runtime
    # instead of hiding behind the first clusters' DMA.  The group ID
    # (the job's first cluster) keeps concurrent space-shared jobs on
    # independent barrier counters.
    if cluster.fabric_barrier is not None:
        yield from cluster.fabric_barrier.arrive(
            desc.num_clusters, group=desc.first_cluster)
        cluster.trace.record(label, "start_barrier_crossed")

    if not work.empty:
        if desc.exec_mode == abi.EXEC_MODE_DOUBLE_BUFFERED:
            yield from _execute_double_buffered(cluster, desc, kernel, work)
        else:
            yield from _execute_phased(cluster, desc, kernel, work)

    # --- Signal completion --------------------------------------------------
    yield from _signal_completion(cluster, desc)
    cluster.trace.record(label, "completion_signalled")


def _execute_phased(cluster: "Cluster", desc: abi.JobDescriptor, kernel,
                    work) -> typing.Generator:
    """The paper's protocol: stage the whole slice, compute, write back.

    The three phases are strictly sequential on the cluster, which is
    what makes the measured runtime obey Eq. 1's additive structure.
    """
    label = f"cluster{cluster.cluster_id}"
    _check_footprint(cluster, kernel, work, desc.n, label)

    # --- Stage operands in ------------------------------------------
    bytes_in = kernel.slice_bytes_in(work.lo, work.hi, desc.n)
    yield from cluster.dma.transfer_in(bytes_in)
    inputs = {
        name: cluster.memory.read_f64(
            desc.input_addrs[name], kernel.input_length(name, desc.n))
        for name in kernel.input_names
    }
    cluster.trace.record(label, "dma_in_done", bytes_in)

    # --- Compute ------------------------------------------------------
    yield from cluster.compute_phase(kernel, work, desc.n)
    fragments = kernel.compute_slice(desc.n, desc.scalars, inputs, work)
    cluster.trace.record(label, "compute_done")

    # --- Write results back --------------------------------------------
    bytes_out = kernel.slice_bytes_out(work.lo, work.hi, desc.n)
    yield from cluster.dma.transfer_out(bytes_out)
    for name, (start, values) in fragments.items():
        cluster.memory.write_f64(
            desc.output_addrs[name] + 8 * start, values)
    cluster.trace.record(label, "dma_out_done", bytes_out)


#: Double buffering targets this many chunks per slice (more when the
#: TCDM cannot hold two of them, fewer when the slice is tiny).
DBUF_TARGET_CHUNKS = 4
#: Slices below this many elements are not worth pipelining.
DBUF_MIN_ELEMENTS = 32


def _execute_double_buffered(cluster: "Cluster", desc: abi.JobDescriptor,
                             kernel, work) -> typing.Generator:
    """Chunked load/compute/write-back pipeline (the classic Snitch
    double-buffering idiom, an extension over the paper's protocol).

    The slice is split into chunks; while chunk *k* computes, chunk
    *k+1* streams in and chunk *k-1* streams out, so the memory time
    hides behind compute (or vice versa) instead of adding to it.  The
    cost is one loop setup per chunk and two staging buffers in the
    TCDM.  Only element-wise kernels qualify (reductions emit one
    output per *slice*, which chunking would corrupt); tiny slices fall
    back to the phased protocol.
    """
    sim = cluster.sim
    label = f"cluster{cluster.cluster_id}"
    for name in kernel.output_names:
        if kernel.output_length(name, desc.n, desc.num_clusters) != desc.n:
            raise OffloadError(
                f"{label}: double buffering requires an element-wise "
                f"kernel; {kernel.name!r} output {name!r} depends on the "
                "offload shape"
            )

    if work.elements < DBUF_MIN_ELEMENTS:
        yield from _execute_phased(cluster, desc, kernel, work)
        return

    footprint = kernel.slice_tcdm_bytes(work.lo, work.hi, desc.n)
    min_chunks = -(-2 * footprint // cluster.tcdm.size_bytes)
    num_chunks = min(work.elements, max(DBUF_TARGET_CHUNKS, min_chunks))
    chunks = [
        WorkSlice(index=chunk.index, lo=work.lo + chunk.lo,
                  hi=work.lo + chunk.hi)
        for chunk in split_range(work.elements, num_chunks)
    ]
    worst = max(kernel.slice_tcdm_bytes(c.lo, c.hi, desc.n) for c in chunks)
    if 2 * worst > cluster.tcdm.size_bytes:
        raise OffloadError(
            f"{label}: two {worst}-byte double-buffer chunks exceed the "
            f"{cluster.tcdm.size_bytes}-byte TCDM; offload to more clusters"
        )

    loaded = [sim.event(name=f"{label}.dbuf.loaded{k}")
              for k in range(num_chunks)]
    computed = [sim.event(name=f"{label}.dbuf.computed{k}")
                for k in range(num_chunks)]
    written = [sim.event(name=f"{label}.dbuf.written{k}")
               for k in range(num_chunks)]
    inputs_box: typing.Dict[str, typing.Any] = {}
    fragments_box: typing.List = [None] * num_chunks

    def loader() -> typing.Generator:
        for k, chunk in enumerate(chunks):
            if k >= 2:
                # Two staging buffers: reuse chunk k-2's once written out.
                yield written[k - 2]
            nbytes = kernel.slice_bytes_in(chunk.lo, chunk.hi, desc.n)
            yield from cluster.dma.transfer_in(nbytes)
            if not inputs_box:
                inputs_box.update({
                    name: cluster.memory.read_f64(
                        desc.input_addrs[name],
                        kernel.input_length(name, desc.n))
                    for name in kernel.input_names
                })
            loaded[k].trigger()
        cluster.trace.record(label, "dma_in_done",
                             kernel.slice_bytes_in(work.lo, work.hi, desc.n))

    def computer() -> typing.Generator:
        for k, chunk in enumerate(chunks):
            yield loaded[k]
            yield from cluster.compute_phase(kernel, chunk, desc.n,
                                             name_suffix=f".chunk{k}")
            fragments_box[k] = kernel.compute_slice(
                desc.n, desc.scalars, inputs_box, chunk)
            computed[k].trigger()
        cluster.trace.record(label, "compute_done")

    def writer() -> typing.Generator:
        for k, chunk in enumerate(chunks):
            yield computed[k]
            nbytes = kernel.slice_bytes_out(chunk.lo, chunk.hi, desc.n)
            yield from cluster.dma.transfer_out(nbytes)
            for name, (start, values) in fragments_box[k].items():
                cluster.memory.write_f64(
                    desc.output_addrs[name] + 8 * start, values)
            written[k].trigger()
        cluster.trace.record(label, "dma_out_done",
                             kernel.slice_bytes_out(work.lo, work.hi, desc.n))

    sim.spawn(loader(), name=f"{label}.dbuf.loader")
    sim.spawn(computer(), name=f"{label}.dbuf.computer")
    sim.spawn(writer(), name=f"{label}.dbuf.writer")
    yield written[-1]


def _fetch_descriptor(cluster: "Cluster", pointer: int) -> typing.Generator:
    """Fetch and decode the descriptor: one line burst, then the tail."""
    noc = cluster.noc
    first = yield noc.cluster_read_burst(
        cluster.cluster_id, pointer, FIRST_BURST_WORDS)
    total = abi.descriptor_length(first[0])
    words = list(first)
    if total > FIRST_BURST_WORDS:
        rest = yield noc.cluster_read_burst(
            cluster.cluster_id, pointer + 8 * FIRST_BURST_WORDS,
            total - FIRST_BURST_WORDS)
        words.extend(rest)
    return abi.decode_descriptor(words[:total])


def _signal_completion(cluster: "Cluster",
                       desc: abi.JobDescriptor) -> typing.Generator:
    if desc.sync_mode == abi.SYNC_MODE_AMO:
        # Atomic fetch-and-add on the shared flag; AMOs are non-posted,
        # and all clusters serialize at the shared atomics port.
        yield cluster.noc.cluster_amo_add(
            cluster.cluster_id, desc.completion_addr, 1)
        return
    # Credit-counter unit: fire-and-forget posted write; the unit
    # interrupts the host once the threshold is met.
    handle = cluster.noc.cluster_write(
        cluster.cluster_id, desc.completion_addr, 1)
    yield handle.issued
