"""The shared Experiment base: CSV export."""

import dataclasses
import typing

import pytest

from repro.experiments.base import Experiment


@dataclasses.dataclass(frozen=True)
class _Toy(Experiment):
    rows: typing.Tuple[typing.Tuple[int, float], ...]

    def csv_columns(self):
        return ("m", "cycles")

    def csv_rows(self):
        return iter(self.rows)


def test_to_csv_has_header_and_rows():
    toy = _Toy(rows=((1, 100.0), (2, 62.5)))
    lines = toy.to_csv().splitlines()
    assert lines[0] == "m,cycles"
    assert lines[1] == "1,100.0"
    assert lines[2] == "2,62.5"


def test_to_csv_renders_none_as_empty_cell():
    @dataclasses.dataclass(frozen=True)
    class _Sparse(Experiment):
        def csv_columns(self):
            return ("kernel", "crossover_n")

        def csv_rows(self):
            yield ("daxpy", 128)
            yield ("memcpy", None)

    lines = _Sparse().to_csv().splitlines()
    assert lines[2] == "memcpy,"


def test_csv_is_not_implemented_by_default():
    @dataclasses.dataclass(frozen=True)
    class _Bare(Experiment):
        pass

    with pytest.raises(NotImplementedError):
        _Bare().to_csv()
    with pytest.raises(NotImplementedError):
        _Bare().render()
