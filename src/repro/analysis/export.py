"""CSV export of sweep measurements."""

from __future__ import annotations

import csv
import io

from repro.core.sweep import SweepResult


def sweep_to_csv(result: SweepResult) -> str:
    """Render a sweep as CSV text (header + one row per point)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["kernel", "n", "num_clusters", "variant",
                     "runtime_cycles", "setup", "dispatch",
                     "completion_wait", "sync_overhead"])
    for point in result:
        phases = point.phases
        writer.writerow([
            point.kernel_name, point.n, point.num_clusters, point.variant,
            point.runtime_cycles,
            phases.get("setup", ""), phases.get("dispatch", ""),
            phases.get("completion_wait", ""),
            phases.get("sync_overhead", ""),
        ])
    return buffer.getvalue()

