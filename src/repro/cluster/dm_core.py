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
always holds an architecturally-consistent snapshot.  (The closed-form
data phase reads a member's operands at its write-back instead, and
takes only jobs where that reads the same values; see
:func:`serve_jobs`.)
"""

from __future__ import annotations

import typing

from repro import abi, flags
from repro.errors import OffloadError
from repro.kernels.base import WorkSlice, slice_bounds, split_range

if typing.TYPE_CHECKING:
    from repro.cluster.cluster import Cluster
    from repro.mem.memory import MainMemory
    from repro.noc.xbar import Interconnect

#: Words fetched by the first descriptor burst (one 64-byte line).
FIRST_BURST_WORDS = 8
#: Job plans a launch context keeps before it starts over (a launch
#: holds one per job and tile class; doorbells rung without the offload
#: runtime reuse one context indefinitely).
MAX_PLANS = 16


class JobPlan:
    """One job's constants, built once for all its DM cores.

    ``ranks[r]`` holds rank ``r``'s work slice, its DMA bytes in and
    out, and its TCDM footprint.  :meth:`phase_cycles` keeps the
    per-worker cycles of a compute phase for each of the job's slice
    lengths (two at most), and lives only as long as the plan; it runs
    at a member's compute phase, where the reference looks the tile's
    rate up, so a tile without a rate for the kernel fails at that
    point.

    ``closable`` says whether the descriptor admits the closed-form data
    phase (see :func:`serve_jobs`); ``arrivals`` lists, in fabric-barrier
    booking order, each member's ``(rank, DMA setup, barrier latency)``
    for :meth:`close_tail`, and ``tail`` holds its answer once a member
    has asked.  :meth:`input_views` keeps the job's inputs as views of
    main memory for the members that take the closed form.
    """

    __slots__ = ("kernel", "n", "ranks", "_phases", "closable",
                 "arrivals", "tail", "_views")

    def __init__(self, desc: abi.JobDescriptor) -> None:
        kernel = desc.kernel
        n = desc.n
        self.kernel = kernel
        self.n = n
        # A slice's bytes depend only on its length and which of its
        # ends are interior (see SliceBytes), so ranks share them.
        shapes: typing.Dict[typing.Tuple[int, bool, bool],
                            typing.Tuple[int, int, int]] = {}
        ranks = []
        for work in split_range(n, desc.num_clusters):
            lo, hi = work.lo, work.hi
            shape = (hi - lo, lo > 0, hi < n)
            sizes = shapes.get(shape)
            if sizes is None:
                sizes = shapes[shape] = (
                    kernel.slice_bytes_in(lo, hi, n),
                    kernel.slice_bytes_out(lo, hi, n),
                    kernel.slice_tcdm_bytes(lo, hi, n))
            ranks.append((work, *sizes))
        self.ranks = tuple(ranks)
        self._phases: typing.Dict[int, typing.Tuple[int, ...]] = {}
        self.closable = _closable(desc, self.ranks)
        self.arrivals: typing.List[typing.Tuple[int, int, int]] = []
        self.tail: typing.Union[
            None, bool, typing.Dict[int, typing.Tuple[int, int, int]]] = None
        self._views: typing.Optional[typing.Dict[str, typing.Any]] = None

    def phase_cycles(self, cluster: "Cluster",
                     elements: int) -> typing.Tuple[int, ...]:
        """Per-worker cycles of ``cluster``'s compute phase over a slice
        of ``elements`` items (``cluster`` has the plan's tile class)."""
        cycles = self._phases.get(elements)
        if cycles is None:
            cycles = self._phases[elements] = cluster.phase_cycles(
                self.kernel, elements, self.n)
        return cycles

    def input_views(self, memory: "MainMemory", desc: abi.JobDescriptor
                    ) -> typing.Dict[str, typing.Any]:
        """The job's input arrays as read-only views of ``memory``,
        built by the first member to ask.  A view shows the memory as it
        is when read, so members that read at different cycles share
        it."""
        views = self._views
        if views is None:
            kernel = self.kernel
            views = self._views = {
                name: memory.view_f64(desc.input_addrs[name],
                                      kernel.input_length(name, self.n))
                for name in kernel.input_names}
        return views

    def close_tail(self, cluster: "Cluster"
                   ) -> typing.Optional[
                       typing.Dict[int, typing.Tuple[int, int, int]]]:
        """Time the whole job's data phase from the fabric release.

        Called by the first working member to resume from the start
        barrier, in the release cycle ``R``.  Books every working
        rank's read-channel slot in booking order (the order the
        members resume at ``R``), giving DMA-in done ``d``; its compute
        release ``c = d + max(worker wake + cycles) + L`` (``L`` the
        cluster-barrier latency); then every write-channel slot in
        ``(c, booking)`` order, giving write-back done ``o``.  Returns
        ``{rank: (d, c, o)}``, or ``None`` with nothing booked when the
        span is not one tile with one DMA setup and one barrier latency,
        a channel refuses reservations, or a slice would overflow the
        TCDM (each member then takes the stepped path, which reports
        it).  ``cluster`` is the caller; with one tile across the span
        its workers time every rank.
        """
        arrivals = self.arrivals
        shape = arrivals[0][1:]
        if len(arrivals) != len(self.ranks) or any(
                arrival[1:] != shape for arrival in arrivals):
            return None
        setup, latency = shape
        dma = cluster.dma
        read = dma.read_channel
        write = dma.write_channel
        if not (read.can_reserve(setup) and write.can_reserve(setup)):
            return None
        tcdm_bytes = cluster.tcdm.size_bytes
        if any(footprint > tcdm_bytes
               for _work, _in, _out, footprint in self.ranks):
            return None
        issue = cluster.sim.now + setup
        workers = cluster.workers
        delays: typing.Dict[int, int] = {}
        computed = []
        for rank, _setup, _latency in arrivals:
            work, bytes_in, _out, _footprint = self.ranks[rank]
            if work.empty:
                continue
            elements = work.elements
            delay = delays.get(elements)
            if delay is None:
                delay = delays[elements] = latency + max(
                    worker.wake_latency + cycles for worker, cycles
                    in zip(workers, self.phase_cycles(cluster, elements)))
            done_in = read.commit_transfer(issue, bytes_in)
            computed.append((done_in + delay, len(computed), rank, done_in))
        # Compute releases due in one cycle take the write channel in
        # booking order, as in the reference (see serve_jobs).
        computed.sort()
        return {
            rank: (done_in, released, write.commit_transfer(
                released + setup, self.ranks[rank][2]))
            for released, _booked, rank, done_in in computed}


def _closable(desc: abi.JobDescriptor, ranks) -> bool:
    """Whether the descriptor admits the closed-form data phase.

    Sync-unit completion (a member's AMO could tie with a host poll at
    the AMO port), the phased exec mode, nonzero DMA bytes in and out
    for every working rank, and no input a member reads that another
    member's write-back could change first: the closed form reads a
    member's inputs at its write-back instead of at its DMA-in.  An
    output may overlap an input only in place — both at one address,
    the output one element per work item, the input read only inside
    the member's own slice (no halo, no fixed or ``n``-scaled term in
    ``slice_bytes_in``).
    """
    if (desc.sync_mode == abi.SYNC_MODE_AMO
            or desc.exec_mode == abi.EXEC_MODE_DOUBLE_BUFFERED):
        return False
    if any(not (bytes_in and bytes_out)
           for work, bytes_in, bytes_out, _footprint in ranks
           if not work.empty):
        return False
    kernel = desc.kernel
    n = desc.n
    declared = kernel.slice_bytes_in
    own_slice = not (declared.per_item_n or declared.fixed
                     or declared.fixed_n or declared.halo)
    for name in kernel.output_names:
        out_lo = desc.output_addrs[name]
        length = kernel.output_length(name, n, desc.num_clusters)
        out_hi = out_lo + 8 * length
        for source in kernel.input_names:
            in_lo = desc.input_addrs[source]
            in_hi = in_lo + 8 * kernel.input_length(source, n)
            if in_lo < out_hi and out_lo < in_hi and not (
                    in_lo == out_lo and length == n and own_slice):
                return False
    return True


class LaunchContext:
    """What the DM cores serving one launch share (one per system).

    :class:`~repro.runtime.protocol.OffloadRuntime` opens it when a
    launch's host program starts and closes it when the program ends.
    A DM core reads it at each doorbell instead of working the same
    answers out for itself.
    """

    __slots__ = ("reference", "plain", "plans_built", "closed_tails",
                 "_plans", "_fetched")

    def __init__(self) -> None:
        #: Whether ``REPRO_NAIVE_CHANNEL`` or ``REPRO_NAIVE_BARRIER``
        #: routes this launch's DM cores through the reference helpers,
        #: read once when the launch opens; ``None`` outside a launch
        #: (a doorbell rung without the runtime reads the gates itself).
        self.reference: typing.Optional[bool] = None
        #: Whether the launch is *plain*, so its DM cores may fetch the
        #: descriptor and post the completion store in closed form (see
        #: :func:`serve_jobs`).
        self.plain = False
        #: Job plans built (a fast-forward visibility counter).
        self.plans_built = 0
        #: Jobs whose data phase was timed in closed form (likewise).
        self.closed_tails = 0
        self._plans: typing.Dict[typing.Tuple[int, int],
                                 typing.Tuple[JobPlan, typing.Any,
                                              typing.Any]] = {}
        #: ``(pointer, descriptor, words)`` of the plain launch's
        #: descriptor, once a member has read it.
        self._fetched: typing.Optional[
            typing.Tuple[int, abi.JobDescriptor, int]] = None

    def open(self, plain: bool) -> None:
        """Start a launch: read the gates, forget earlier jobs."""
        self.reference = flags.naive_channel() or flags.naive_barrier()
        self.plain = plain
        self._plans.clear()
        self._fetched = None

    def close(self) -> None:
        """End the launch."""
        self.reference = None
        self.plain = False
        self._plans.clear()
        self._fetched = None

    def fetch(self, noc: "Interconnect", cluster_id: int, pointer: int,
              issue: int
              ) -> typing.Optional[typing.Tuple[abi.JobDescriptor, int]]:
        """A plain launch member's closed-form descriptor fetch.

        Returns the decoded descriptor and the cycle its second burst
        completes, or ``None`` when the interconnect refuses (see
        :meth:`~repro.noc.xbar.Interconnect.cluster_read_descriptor`).
        The first member to succeed reads and decodes the words; the
        others pay only the timing, for the descriptor is immutable
        from the host's release fence until the job completes.
        """
        known = self._fetched
        if known is not None and known[0] == pointer:
            done = noc.cluster_refetch_descriptor(
                cluster_id, pointer, issue, FIRST_BURST_WORDS, known[2])
            return None if done is None else (known[1], done)
        fetched = noc.cluster_read_descriptor(
            cluster_id, pointer, issue, FIRST_BURST_WORDS,
            abi.descriptor_length)
        if fetched is None:
            return None
        words, done = fetched
        desc = abi.decode_descriptor(words)
        self._fetched = (pointer, desc, len(words))
        return desc, done

    def plan(self, desc: abi.JobDescriptor, cluster: "Cluster") -> JobPlan:
        """The job's plan for ``cluster``'s tile class, built by the
        first member to ask.

        Keyed on object identity: a job's members decode one memoized
        descriptor and share their group's tile.  Each entry keeps both
        alive, so no key is reused while it is stored.
        """
        tile = cluster.tile
        key = (id(desc), id(tile))
        entry = self._plans.get(key)
        if entry is None:
            if len(self._plans) >= MAX_PLANS:
                self._plans.clear()
            entry = self._plans[key] = (JobPlan(desc), desc, tile)
            self.plans_built += 1
        return entry[0]

    def tail(self, plan: JobPlan, cluster: "Cluster", rank: int
             ) -> typing.Optional[typing.Tuple[int, int, int]]:
        """Rank ``rank``'s ``(d, c, o)`` in the job's closed-form data
        phase, which the first member to ask commits (see
        :meth:`JobPlan.close_tail`); ``None`` when the job refuses it."""
        tail = plan.tail
        if tail is None:
            tail = plan.tail = plan.close_tail(cluster) or False
            if tail:
                self.closed_tails += 1
        return tail[rank] if tail else None

    def reset(self) -> None:
        """Restore boot state."""
        self.close()
        self.plans_built = 0
        self.closed_tails = 0


def serve_jobs(cluster: "Cluster") -> typing.Generator:
    """The DM core's main loop (a simulation process body).

    The loop body below *inlines* the default fast path of every phase
    — doorbell, descriptor fetch, fabric barrier, DMA staging, compute
    phase, completion — into this single generator frame, parking on
    the same events the reference helpers park on.  A generator resume
    re-activates every frame in its ``yield from`` chain, so the
    two-to-four-deep helper chain would be the dominant per-job
    interpreter cost; the flat frame pays for one activation per park.
    A phased job with a non-empty slice parks at most seven times:

    1. on the mailbox, until the doorbell;
    2. for wake-up, descriptor fetch and decode (not at all in a plain
       launch, whose members fetch in closed form, see below);
    3. on the fabric barrier's release;
    4. on the DMA-in reservation;
    5. on the compute phase's barrier crossing;
    6. on the DMA-out reservation;
    7. on the completion signal: the AMO response, or the posted
       store's ``issued`` event (not at all for a plain launch's
       closed-form store, see below).

    A member of a plain launch whose job takes the closed-form data
    phase (below) parks three times — mailbox, release, write-back:
    park 2 goes, parks 4 to 6 become one park, until its write-back,
    and park 7 goes.  Cycle identity with the reference comes from
    issuing the identical primitive calls (the non-generator forms
    ``job_event`` / ``book_arrival`` / ``reserve_in`` /
    ``cross_compute_phase``) in the identical order, or, for the closed
    forms, from the arguments below.

    **Stamped records.**  Where a member knows the cycle of a marker
    ahead — "awake", "decoded", "dma_in_done", "compute_done" and
    "completion_signalled" in the closed forms — it stamps it with
    :meth:`~repro.sim.TraceRecorder.record_at` instead of scheduling a
    callback that only appends it.  A stamped record stays invisible
    until the clock reaches its cycle and then lands ahead of the
    records made in that cycle, where a heap callback would have
    appended it, so it moves no event; only the trace's order within
    one cycle across sources can differ.

    **One plan per job.**  Everything a member would otherwise work
    out for itself from the descriptor — its work slice, its DMA bytes
    in and out, its TCDM footprint, the per-worker cycles of its
    compute phase — is the same for every member of the job with the
    same tile class, so the first member to decode builds a
    :class:`JobPlan` in the system's :class:`LaunchContext` and the
    rest look their rank up in it.  The context also carries the
    ``REPRO_NAIVE_*`` gates, read once when the runtime opens the
    launch, and whether the launch is plain.  The plan only computes;
    it schedules nothing, so it moves no event.

    **Closed-form descriptor fetch.**  At the doorbell (cycle ``T``)
    :meth:`LaunchContext.fetch` commits both descriptor bursts at
    once: it logs them, charges the port, and returns the descriptor
    and the cycle ``F0`` the second burst completes.  (The first member
    reads and decodes the words through
    :meth:`~repro.noc.xbar.Interconnect.cluster_read_descriptor`; the
    others pay only the timing, through
    :meth:`~repro.noc.xbar.Interconnect.cluster_refetch_descriptor`.)
    In the same doorbell resume the core stamps "awake" for ``T + W``
    (``W`` the wake latency) and "decoded" for ``F = F0 + D`` (``D`` the
    decode latency), looks its rank up in the job's plan, appends its
    arrival to the plan (see the data phase below), books its
    fabric-barrier arrival for cycle ``F``
    (:meth:`~repro.soc.fabricbarrier.FabricBarrier.book_arrival_at`)
    and parks on the release.  The reference chain (wake delay, two
    burst callback chains, decode delay, then the arrival) runs instead
    when the launch is not a *plain* one — one job, no host work, a span
    whose clusters share one ``W`` and one ``D``, a nonzero NoC request
    latency (the runtime decides per launch; see
    :class:`~repro.runtime.protocol.OffloadRuntime`) — when the cluster
    has no fabric barrier, or when the interconnect refuses (busy port,
    descriptor outside main memory).  Every member of a job fetches the
    same descriptor over an idle port (the host rings only after
    observing the previous completion signal, which has left the port
    by then), so a job's DM cores all take the same path.

    *No same-cycle tie reorders.*  Against the reference, the member's
    wake, fetch and decode entries go, and so does its decode-done
    step at ``F``, which records "decoded" and books the arrival.  The
    records are stamped.  An arrival only adds to the job's
    fabric-barrier counter, which only members touch, so the bookings
    commute with everything but each other; every member has the same
    descriptor, ``W``, ``D`` and idle port, so ``F - T`` is one constant,
    and booking at ``T`` in doorbell order books in the reference's
    order (members with one ``T`` run their chains in lockstep from
    doorbell resumes in mailbox order; every descriptor is at least ten
    words — eight header words, an input and an output — so every
    fetch is two bursts).  The same member completes the generation,
    and :attr:`JobPlan.arrivals` is in the same order.

    The one thing that moves is the completing arrival's wire hop
    ``H``, due at ``F + A`` (``A`` the arrival latency, maybe 0).  The
    reference creates it in the decode-done step at ``F``, or with
    ``A = 0`` runs its body right there; the closed form creates it in
    the doorbell resume at ``T``, and with ``A = 0`` runs it from the
    heap at ``F``, ahead of everything else created after ``T`` that
    runs in that cycle.  So ``H`` can change places only with an entry
    ``X`` that runs at ``F + A`` and was created after ``T``.  In a
    plain launch ``X`` belongs to the job's own DM cores or to the
    host:

    - ``X`` is a member's wake, fetch or decode step.  Such a step
      records, reads over its own port or books a non-completing
      arrival; ``H`` only starts the release wave, so they commute.
    - ``X`` is the host's.  Everything ``H`` leads to (the release, DMA
      on the memory channels, compute, the completion AMO or sync-unit
      write) uses state the host never touches, except two hand-offs:
      the sync unit's interrupt, which finds the host parked in WFI,
      and the AMO's flag write, which the host may read in the same
      cycle.  That read's data phase runs from the time heap (nonzero
      request latency), ahead of the AMO write that the zero-delay
      queue delivers, whatever the two chains' ranks — the same
      argument the poll fast path rests on.

    So only the trace's order *within* one cycle across sources can
    differ, like the NoC log's list order; neither is part of the
    contract.

    **Closed-form completion store.**  In a plain launch a member
    signalling the sync unit at cycle ``T`` calls
    :meth:`~repro.noc.xbar.Interconnect.cluster_post_store`, which logs
    the WRITE, charges the idle port ``O`` cycles
    (``cluster_port_occupancy``), schedules the delivery — the
    functional increment — at ``T + O + L`` (``L`` the request
    latency, nonzero in a plain launch), and holds the clock's drain
    horizon at the ack cycle.  The core stamps its
    "completion_signalled" record for ``T + O``, adds to its own
    counters and parks on its mailbox at once.  The reference issues
    the same store as a callback chain: a port-grant entry ``G`` due at
    ``T + O`` created in the core's resume, a kick-off hop, the core's
    resume queued by ``G``'s trigger, an ``issued`` hop that creates
    the delivery entry at ``T + O``, and an ack nobody waits for.  Two
    things move:

    - *The core's last step* is all gone but its record, which is
      stamped for ``T + O`` instead of appended in a resume behind
      ``G``'s trigger; ``G`` goes with it.  The counters and the
      mailbox park move to ``T``.
      No one reads a DM core's counters during a launch, and no one
      rings its mailbox before the launch ends (the host rings only
      after the last completion), so both commute with everything in
      between.
    - *The delivery entry* is created at ``T`` instead of ``T + O``.
      It can therefore only pass an entry ``X`` due at ``T + O + L``
      and created after the store call, no later than cycle ``T + O``.
      If ``X`` is another member's delivery, both are due in the same
      cycle only if both members stored at the same ``T``, and both
      forms create the two entries in store-call order.  Any other
      ``X`` belongs to a member that has not signalled yet, or to the
      host, which is parked in WFI.  A delivery that leaves the count
      below the threshold only adds to a counter that nothing reads
      before the threshold, so it commutes with ``X``.  The delivery
      that meets the threshold comes from a member with the latest
      ``T``, after every other member has signalled, so no other
      member has an ``X`` left.

    **Closed-form data phase.**  After the start barrier the rest of a
    phased job is a closed form in the slice shapes (the batch planner
    times it the same way; see :mod:`repro.core.batch`).  In a plain
    launch each member books its arrival in the job's plan
    (:attr:`JobPlan.arrivals`) at its doorbell, along with the fabric
    barrier's, and the first working member to resume at the fabric
    release ``R`` commits the whole job's tail
    (:meth:`JobPlan.close_tail`): every working rank's read-channel
    slot in booking order, giving DMA-in done ``d``; its compute
    release ``c = d + max(worker wake + cycles) + L``; every
    write-channel slot in ``(c, booking)`` order, giving write-back
    done ``o``.  Each member then charges its own DMA, worker and
    barrier counters, stamps its "dma_in_done" and "compute_done"
    records for ``d`` and ``c``, and parks once, until ``o``, as a
    direct resume.  There it reads its inputs
    through the job's read-only views of main memory
    (:meth:`JobPlan.input_views`; no copy), computes, writes its
    fragments back and posts its completion store.

    A job takes this path only when all of these hold, else every one
    of its members steps through the phases (all or nothing: the tail
    books every member's channel slots at once): the launch is plain
    and neither reference gate is set; completion goes through the
    sync unit (a member's AMO could tie with a host poll at the AMO
    port); the exec mode is phased; the span is one tile with one DMA
    setup and one barrier latency (every member booked into one plan,
    with one setup and one latency); both channels accept
    reservations; every working rank moves bytes in and out; and no
    output overlaps an input except in place over an input each member
    reads only inside its own slice (see :func:`_closable`).

    *No same-cycle tie reorders.*  The members resume at ``R`` in
    booking order (the order they parked on the release), and the
    reference books every read slot in those resumes, in that order,
    so the read slots agree.  The reference books the write slots in
    the resumes at the compute releases.  Two releases due in one
    cycle resume in the order of their members' ``d``: each release's
    entry descends from the crossing hop created at its ``d``, and a
    member whose crossing takes no cycles triggers in the zero-delay
    pass, behind every heap entry of that cycle.  The ``d`` are
    distinct (the read channel serves one transfer at a time, each of
    at least a cycle) and rise in booking order, so sorting on ``(c,
    booking)`` reproduces the reference's order.  In a plain launch the
    channels' only requesters are the job's members, which all take
    the closed form, so booking slots early passes no one; a cluster's
    barrier and workers belong to its DM core.  Three things move:

    - *The write-back wake* is created at ``R`` instead of ``c + S``
      (``S`` the DMA setup), and resumes the core directly in the heap
      pass of cycle ``o`` instead of behind a trigger in the
      zero-delay queue.  The resume reads and writes main memory,
      appends to the trace and the NoC log, and posts its store
      through its own cluster port.  Anything else due at ``o`` is a
      write-back of another member (never: the write channel serves one
      transfer at a time, each of at least a cycle), the delivery of an
      earlier completion store (below the threshold, for this member's
      store is still to come, so it only adds to the sync unit's
      count), or the host's, which is parked in WFI.  None touches what
      the resume touches, so they commute.
    - *The two records* are stamped for ``d`` and ``c`` instead of
      appended in resumes; they only append to the trace.
    - *The functional read* moves from ``d`` to ``o``.  In between,
      main memory changes only by other members' write-backs (the host
      waits in WFI), each of which writes only its own output
      fragments.  The gate admits an output over an input only in
      place, where each member reads only its own slice, which only it
      writes, after reading.

    So, as for the fetch, only the trace's and the NoC log's order
    within one cycle can differ.

    ``tests/property/test_fastforward_identity.py`` checks the
    reference (``REPRO_NAIVE_CHANNEL``, and ``REPRO_NAIVE_BARRIER``
    for the data phase) against these paths with ``W``, ``D``, the
    NoC, DMA-setup, cluster- and fabric-barrier and interrupt latencies
    drawn at random, zero included.

    The compute crossing keeps its two hops
    (:meth:`~repro.cluster.barrier.Barrier.cross_all_known`).  Merging
    the release into the call would create it at the crossing's start
    rather than at its last arrival.  Two compute releases due in one
    cycle would then be ordered by start cycle instead of by last
    arrival.  Clusters whose tiles have different barrier latencies
    (a span that mixes tile classes, or concurrent jobs) can disagree
    on that order, and the first to resume takes the write channel
    first.

    The ``REPRO_NAIVE_CHANNEL`` / ``REPRO_NAIVE_BARRIER`` gates and the
    double-buffered exec mode delegate to the reference helpers
    (:func:`_run_job` and friends), which remain the readable
    specification of the protocol.  Each cluster adds every job's
    doorbell-to-completion time to ``cluster.dm_active_cycles`` (the
    energy meter's DM-core counter).
    """
    sim = cluster.sim
    launch = cluster.launch
    mailbox = cluster.mailbox
    noc = cluster.noc
    dma = cluster.dma
    memory = cluster.memory
    record = cluster.trace.record
    record_at = cluster.trace.record_at
    cluster_id = cluster.cluster_id
    label = f"cluster{cluster_id}"
    wake_latency = cluster.wake_latency
    decode_cycles = cluster.dm_decode_cycles
    fabric = cluster.fabric_barrier
    while True:
        pointer = yield mailbox.job_event()
        doorbell = sim.now
        reference = launch.reference
        if reference is None:
            reference = flags.naive_channel() or flags.naive_barrier()
        if reference:
            # Reference path: simulate every phase's event loop.
            yield from _run_job(cluster, pointer)
            cluster.jobs_completed += 1
            cluster.dm_active_cycles += sim.now - doorbell
            continue

        record(label, "doorbell", pointer)
        plain = launch.plain
        fetched = plain and fabric is not None and launch.fetch(
            noc, cluster_id, pointer, doorbell + wake_latency)
        if fetched:
            # The closed-form fetch (see above): ``decoded`` is F.
            desc, decoded = fetched
            decoded += decode_cycles
            record_at(doorbell + wake_latency, label, "awake")
            record_at(decoded, label, "decoded", desc.kernel_name)
        else:
            if wake_latency:
                yield wake_latency
            record(label, "awake")
            desc = yield from _fetch_descriptor(cluster, pointer)
            if decode_cycles:
                yield decode_cycles
            record(label, "decoded", desc.kernel_name)

        rank = cluster_id - desc.first_cluster
        if not 0 <= rank < desc.num_clusters:
            raise _outside_range(desc, label)
        plan = launch.plan(desc, cluster)
        kernel = plan.kernel
        work, bytes_in, bytes_out, footprint = plan.ranks[rank]
        closable = plain and plan.closable and fabric is not None
        if closable:
            plan.arrivals.append(
                (rank, dma.setup_cycles, cluster.barrier.latency))

        if fetched:
            # Book the arrival at the doorbell, for cycle F (see above).
            yield fabric.book_arrival_at(desc.num_clusters,
                                         desc.first_cluster, decoded)
            record(label, "start_barrier_crossed")
        elif fabric is not None:
            yield fabric.book_arrival(desc.num_clusters,
                                      group=desc.first_cluster)
            record(label, "start_barrier_crossed")

        if not work.empty:
            tail = closable and launch.tail(plan, cluster, rank)
            if tail:
                # The closed-form data phase (see above).
                dma_in, released, dma_out = tail
                now = sim.now
                dma.charge_reserved(bytes_in, bytes_out)
                cluster.charge_compute_phase(
                    plan.phase_cycles(cluster, work.elements))
                cluster.barrier.cross_closed()
                record_at(dma_in, label, "dma_in_done", bytes_in)
                record_at(released, label, "compute_done")
                yield dma_out - now
                fragments = kernel.compute_slice(
                    desc.n, desc.scalars, plan.input_views(memory, desc),
                    work)
                for name, (start, values) in fragments.items():
                    memory.write_f64(
                        desc.output_addrs[name] + 8 * start, values)
                record(label, "dma_out_done", bytes_out)
                fragments = values = None
            elif desc.exec_mode == abi.EXEC_MODE_DOUBLE_BUFFERED:
                yield from _execute_double_buffered(
                    cluster, desc, kernel, work)
            else:
                # The phased protocol (see _execute_phased).
                _check_footprint(cluster, footprint, label)
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

                yield cluster.cross_compute_phase(
                    plan.phase_cycles(cluster, work.elements))
                fragments = kernel.compute_slice(
                    desc.n, desc.scalars, inputs, work)
                record(label, "compute_done")

                done = dma.reserve_out(bytes_out)
                if done is not None:
                    yield done
                else:
                    yield from dma.transfer_out(bytes_out)
                for name, (start, values) in fragments.items():
                    memory.write_f64(
                        desc.output_addrs[name] + 8 * start, values)
                record(label, "dma_out_done", bytes_out)
                # Park on the mailbox holding no copy of this job's data.
                inputs = fragments = values = None

        # Signal completion (see _signal_completion).
        if desc.sync_mode == abi.SYNC_MODE_AMO:
            yield noc.cluster_amo_add(cluster_id, desc.completion_addr, 1)
        else:
            posted = plain and noc.cluster_post_store(
                cluster_id, desc.completion_addr, 1)
            if posted:
                # Record the signal when the store leaves the port, but
                # park on the mailbox now (see above).
                record_at(sim.now + posted, label, "completion_signalled")
                cluster.jobs_completed += 1
                cluster.dm_active_cycles += sim.now + posted - doorbell
                continue
            yield noc.cluster_write(
                cluster_id, desc.completion_addr, 1).issued
        record(label, "completion_signalled")
        cluster.jobs_completed += 1
        cluster.dm_active_cycles += sim.now - doorbell


def _outside_range(desc: abi.JobDescriptor, label: str) -> OffloadError:
    return OffloadError(
        f"{label} received a job for clusters "
        f"[{desc.first_cluster}, "
        f"{desc.first_cluster + desc.num_clusters}); the host "
        "dispatched outside the job's range"
    )


def _work_slice(cluster: "Cluster", desc: abi.JobDescriptor,
                label: str) -> WorkSlice:
    """This cluster's slice of the job, validating the dispatch range."""
    rank = cluster.cluster_id - desc.first_cluster
    if not 0 <= rank < desc.num_clusters:
        raise _outside_range(desc, label)
    return WorkSlice(rank, *slice_bounds(desc.n, desc.num_clusters, rank))


def _check_footprint(cluster: "Cluster", footprint: int,
                     label: str) -> None:
    """Reject slices whose working set cannot fit the TCDM."""
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
    _check_footprint(
        cluster, kernel.slice_tcdm_bytes(work.lo, work.hi, desc.n), label)

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
