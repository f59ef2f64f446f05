"""The offload protocol: the host program for one launch.

:class:`OffloadRuntime` is built from one registered
:class:`~repro.runtime.strategies.VariantSpec`, and its one routine,
:meth:`OffloadRuntime.launch_program`, is the simulated equivalent of
the C offload routine running on CVA6.  Every launch — plain,
overlapped with host work, or a space-shared concurrent batch — is one
parameterization of the same explicit phase sequence:

1. *Setup*: runtime-entry bookkeeping, then store each job descriptor
   to shared memory word by word.  All but the very last store are
   posted; the last is non-posted and acts as the release fence
   guaranteeing every descriptor is visible before any doorbell rings.
2. *Arm completion*: write the sync-unit THRESHOLD (extended) or zero
   each job's shared completion flag (baseline) — delegated to the
   runtime's :class:`~repro.runtime.strategies.CompletionStrategy`.
3. *Dispatch*: ring each job's doorbells — a sequential store loop
   (baseline, cost linear in M) or a single multicast store (extension,
   constant cost) — delegated to the runtime's
   :class:`~repro.runtime.strategies.DispatchStrategy`.
4. *Overlapped host work* (optional): run a host program fragment
   while the fabric executes; the paper's co-operative pattern.
5. *Wait*: WFI until the sync unit's interrupt (extended), or poll
   each completion flag until it reaches the job's cluster count
   (baseline).

Trace records are uniform across launch shapes: ``offload_start``,
``descriptor_written``, ``dispatch_start``, ``dispatch_done``,
optionally ``host_work_done``, and ``offload_end``.
"""

from __future__ import annotations

import typing

from repro import abi, flags
from repro.errors import OffloadError
from repro.runtime.strategies import VariantSpec, resolve_variant
from repro.soc.manticore import ManticoreSystem

#: One job in a launch: its descriptor and, for flag-based completion,
#: the address of its completion flag (``None`` otherwise).
LaunchJob = typing.Tuple[abi.JobDescriptor, typing.Optional[int]]


class OffloadRuntime:
    """The host-side offload routine of one registered variant.

    ``spec`` (normally resolved by :func:`make_runtime`)
    names the variant and pairs its dispatch and completion strategies;
    the features they need must exist in ``system``'s hardware.
    """

    def __init__(self, system: ManticoreSystem, spec: VariantSpec) -> None:
        spec.check_hardware(system.config)
        self.system = system
        self.name = spec.name
        self.dispatch_strategy = spec.dispatch
        self.completion_strategy = spec.completion

    @property
    def sync_mode(self) -> int:
        """The descriptor sync-mode field this runtime dispatches with."""
        return self.completion_strategy.sync_mode

    def completion_addr(self, flag_addr: typing.Optional[int]) -> int:
        """The address clusters signal completion to (per job)."""
        return self.completion_strategy.completion_addr(self.system,
                                                        flag_addr)

    # ------------------------------------------------------------------
    # The phase pipeline
    # ------------------------------------------------------------------
    def launch_program(
            self,
            jobs: typing.Sequence[typing.Tuple[abi.JobDescriptor, int]],
            flag_addrs: typing.Optional[typing.Sequence[int]],
            result: typing.Dict[str, int],
            host_work: typing.Optional[
                typing.Callable[[], typing.Generator]] = None,
            ) -> typing.Generator:
        """Build the host program for one launch of any shape.

        ``jobs`` pairs each descriptor with its *descriptor address*;
        ``flag_addrs`` lists each job's completion-flag address (flag
        completion only, else ``None``; the descriptors must already
        carry matching ``completion_addr`` fields).  ``result``
        receives ``start_cycle``, ``end_cycle``, and (with host work)
        ``host_work_done_cycle``.

        The shapes:

        - *plain*: one job;
        - *space-shared*: several jobs on disjoint cluster ranges (the
          caller validates the ranges).  With hardware sync one
          threshold equal to the total cluster count makes the credit
          counter a completion barrier across all jobs; with AMO
          completion each job has its own flag, polled in turn;
        - *overlapped*: ``host_work`` (a host program fragment) runs
          between dispatch and wait.  An interrupt that arrived during
          the host work leaves its line pending, so the WFI falls
          straight through; the baseline simply starts polling late.

        The phase sequence — setup, arm, dispatch, optional host work,
        wait — and every cycle charged are identical across shapes.
        """
        if not jobs:
            raise OffloadError("concurrent offload of zero jobs")
        completion = self.completion_strategy
        if completion.uses_flag:
            if flag_addrs is None or len(flag_addrs) != len(jobs):
                raise OffloadError(
                    "AMO completion requires one flag address per job")
            completion_jobs: typing.List[LaunchJob] = [
                (desc, flag) for (desc, _addr), flag
                in zip(jobs, flag_addrs)]
        else:
            completion_jobs = [(desc, None) for desc, _addr in jobs]

        system = self.system
        host = system.host
        config = system.config
        if len(jobs) == 1:
            start_data: typing.Any = jobs[0][0].kernel_name
            written_data: typing.Any = len(abi.encode_descriptor(jobs[0][0]))
        else:
            start_data = [desc.kernel_name for desc, _addr in jobs]
            written_data = len(jobs)
        plain = self._plain(jobs, host_work)

        def program() -> typing.Generator:
            result["start_cycle"] = system.sim.now
            system.trace.record("host", "offload_start", start_data)
            system.launch.open(plain)

            # --- 1. Setup: runtime entry + all descriptors ---------------
            yield from host.execute(config.host_setup_cycles)
            staged = None
            if not flags.naive_channel():
                # Closed-form staging: the whole descriptor store run
                # (every store posted, the last the release fence)
                # resolves to a single scheduler event.  store_block
                # itself verifies the single-actor window and falls
                # back to the reference loop by returning None.
                staged = host.store_block(
                    [(desc_addr, abi.encode_descriptor(desc))
                     for desc, desc_addr in jobs])
            if staged is not None:
                yield staged
            else:
                for index, (desc, desc_addr) in enumerate(jobs):
                    words = abi.encode_descriptor(desc)
                    last_job = index == len(jobs) - 1
                    for word_index, word in enumerate(words[:-1]):
                        yield from host.store_posted(
                            desc_addr + 8 * word_index, word)
                    if last_job:
                        # One release fence covers every descriptor
                        # store.
                        yield from host.store(
                            desc_addr + 8 * (len(words) - 1), words[-1])
                    else:
                        yield from host.store_posted(
                            desc_addr + 8 * (len(words) - 1), words[-1])
            system.trace.record("host", "descriptor_written", written_data)

            # --- 2. Arm completion --------------------------------------
            yield from completion.arm(system, completion_jobs)

            # --- 3. Dispatch every job -----------------------------------
            system.trace.record("host", "dispatch_start")
            for desc, desc_addr in jobs:
                yield from self.dispatch_strategy.dispatch(
                    system, desc, desc_addr)
            system.trace.record("host", "dispatch_done")

            # --- 4. Host work overlaps the fabric's execution ------------
            if host_work is not None:
                yield from host_work()
                system.trace.record("host", "host_work_done")
                result["host_work_done_cycle"] = system.sim.now

            # --- 5. Wait for all jobs ------------------------------------
            yield from completion.wait(system, completion_jobs)
            system.launch.close()

            system.trace.record("host", "offload_end")
            result["end_cycle"] = system.sim.now

        return program()

    def _plain(self, jobs, host_work) -> bool:
        """Whether this launch is *plain*, so its DM cores may fetch
        their descriptors and post their completion stores in closed
        form.

        A plain launch is one job, no host work, on a span whose
        clusters share one wake and one decode latency.  While its DM
        cores run, the only other
        actors are the same job's DM cores and the host's dispatch and
        wait — the setting in which
        :func:`repro.cluster.dm_core.serve_jobs` shows that no
        same-cycle tie can reorder.
        """
        if len(jobs) != 1 or host_work is not None:
            return False
        system = self.system
        desc = jobs[0][0]
        span = system.clusters[desc.first_cluster:
                               desc.first_cluster + desc.num_clusters]
        return len({(cluster.wake_latency, cluster.dm_decode_cycles)
                    for cluster in span}) == 1


def make_runtime(system: ManticoreSystem,
                 variant: str = "auto") -> OffloadRuntime:
    """Build an offload runtime for ``system``.

    ``variant="auto"`` uses every extension the hardware provides (a
    baseline SoC gets the baseline routine, an extended SoC the extended
    one); the explicit names select a registered variant
    (:func:`repro.runtime.strategies.register_variant`), which must be
    supported by the hardware.

    Raises
    ------
    OffloadError
        On unknown variant names or software/hardware mismatches.
    """
    return OffloadRuntime(system, resolve_variant(variant, system.config))
