"""Shared infrastructure for the experiment families.

Every experiment function returns a frozen dataclass derived from
:class:`Experiment`, which contributes the cross-cutting result
surface:

- :meth:`Experiment.render` — the human-readable report (tables,
  charts, notes) printed by the CLI and embedded in ``repro report``;
- :meth:`Experiment.to_csv` — the same tabular payload as
  machine-readable CSV, built from each experiment's
  :meth:`~Experiment.csv_columns` / :meth:`~Experiment.csv_rows`.

The module also hosts the helpers every family shares: the paper's
baseline/extended config pair and the fabric-size guard for the M axis.
"""

from __future__ import annotations

import typing

from repro.errors import DecisionError
from repro.soc.config import SoCConfig

#: Fig. 1 (right) problem sizes: the paper calls 1024 a "low" vector
#: dimension and reports speedup decreasing with N, so the figure's
#: sizes run upward from 1024 (see DESIGN.md E2).
FIG1_RIGHT_N_VALUES = (1024, 2048, 4096, 8192)

#: The kernel generality ablation's kernels and sizes.
GENERALITY_KERNELS = ("daxpy", "axpby", "memcpy", "scale", "vecsum", "dot")


class Experiment:
    """Base class of every experiment result dataclass.

    Subclasses implement :meth:`render` (always) and the CSV pair
    :meth:`csv_columns` / :meth:`csv_rows` (for tabular results).
    """

    def render(self) -> str:
        """Human-readable report: tables, charts, interpretation notes."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement render()")

    # ------------------------------------------------------------------
    # CSV export
    # ------------------------------------------------------------------
    def csv_columns(self) -> typing.Sequence[str]:
        """Column headers of the experiment's principal table."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement csv_columns()")

    def csv_rows(self) -> typing.Iterable[typing.Sequence[typing.Any]]:
        """Rows of the experiment's principal table, header order."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement csv_rows()")

    def to_csv(self) -> str:
        """The experiment's principal table as CSV text."""
        lines = [",".join(self.csv_columns())]
        for row in self.csv_rows():
            lines.append(",".join(_csv_cell(value) for value in row))
        return "\n".join(lines) + "\n"


def _csv_cell(value: typing.Any) -> str:
    """Render one CSV cell; floats keep full precision via repr."""
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def usable_ms(m_values: typing.Sequence[int], config: SoCConfig,
              tile_group: typing.Optional[str] = None) -> typing.List[int]:
    """Drop M values wider than the fabric (CLI runs with small fabrics).

    With ``tile_group``, the bound is that group's tile count instead
    of the whole fabric — per-class sweeps on heterogeneous configs.
    """
    limit = config.cluster_span(tile_group=tile_group).count
    what = ("-cluster fabric" if tile_group is None
            else f"-tile group {tile_group!r}")
    usable = [m for m in m_values if m <= limit]
    if not usable:
        raise DecisionError(
            f"no requested cluster count fits the {limit}{what}")
    return usable


def paper_configs(**overrides) -> typing.Tuple[SoCConfig, SoCConfig]:
    """The two designs Fig. 1 compares, with shared overrides applied."""
    return (SoCConfig.baseline(**overrides), SoCConfig.extended(**overrides))
