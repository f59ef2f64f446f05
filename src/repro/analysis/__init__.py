"""Analysis and reporting: fit statistics, tables, charts, exports.

These utilities turn sweep measurements into the artifacts the paper
reports: the runtime-vs-M series of Fig. 1 (left), the speedup grid of
Fig. 1 (right), the fitted Eq.-1 coefficients, and the per-N MAPE
table.  Rendering is plain text (the experiments print reproduction
tables and ASCII charts); raw data can be exported as CSV.
"""

from repro.analysis.fitting import FitReport, fit_report
from repro.analysis.charts import line_chart
from repro.analysis.export import sweep_to_csv
from repro.analysis.tables import Table
from repro.analysis.utilization import collect_utilization, utilization_report
from repro.analysis.vcd import trace_to_vcd, write_vcd

__all__ = [
    "FitReport",
    "Table",
    "collect_utilization",
    "fit_report",
    "line_chart",
    "sweep_to_csv",
    "trace_to_vcd",
    "utilization_report",
    "write_vcd",
]
