"""Minimal ASCII table rendering for experiment reports."""

from __future__ import annotations

import typing


class Table:
    """A fixed-header table that renders aligned ASCII.

    >>> t = Table(["M", "cycles"])
    >>> t.add_row([1, 978])
    >>> t.add_row([32, 532])
    >>> print(t.render())        # doctest: +NORMALIZE_WHITESPACE
    M   | cycles
    ----+-------
    1   | 978
    32  | 532
    """

    def __init__(self, headers: typing.Sequence[str],
                 title: str = "") -> None:
        if not headers:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: typing.List[typing.List[str]] = []

    def add_row(self, values: typing.Sequence) -> None:
        """Append a row; floats render with 3 decimals, rest via str()."""
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.headers)} columns")
        self.rows.append([self._format(v) for v in values])

    @staticmethod
    def _format(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def render(self) -> str:
        """The table as a string (no trailing newline)."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(" | ".join(
            h.ljust(w) for h, w in zip(self.headers, widths)).rstrip())
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(
                cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
