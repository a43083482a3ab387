"""The experiment index: every table and figure, by id."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.errors import AnalysisError
from repro.experiments import escat_tables, figures, prism_tables


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the paper."""

    id: str
    description: str
    run: Callable[..., object]  # accepts fast: bool
    renders_text: bool  # tables return (data, text); figures FigureData


def _table_runner(fn):
    def run(fast: bool = False, plot: bool = False) -> str:
        _data, text = fn(fast=fast)
        return text
    return run


def _figure_runner(fn):
    def run(fast: bool = False, plot: bool = False) -> str:
        fig = fn(fast=fast)
        return fig.summary_with_plot if plot else fig.summary
    return run


EXPERIMENTS: Dict[str, Experiment] = {}


def _register(id: str, description: str, run, renders_text=True) -> None:
    EXPERIMENTS[id] = Experiment(id, description, run, renders_text)


_register("table1", "ESCAT node activity and access modes per phase",
          _table_runner(escat_tables.table1))
_register("table2", "ESCAT aggregate I/O time breakdown (A/B/C)",
          _table_runner(escat_tables.table2))
_register("table3", "ESCAT I/O as % of execution time (+ carbon monoxide)",
          _table_runner(escat_tables.table3))
_register("table4", "PRISM node activity and access modes per phase",
          _table_runner(prism_tables.table4))
_register("table5", "PRISM aggregate I/O time breakdown (A/B/C)",
          _table_runner(prism_tables.table5))
for _name, _fn in figures.ALL_FIGURES.items():
    _register(_name, _fn.__doc__.strip().splitlines()[0],
              _figure_runner(_fn))


def _section6(fast: bool = False, plot: bool = False) -> str:
    from repro.core.crossapp import section6_report
    from repro.experiments.runner import escat_result, prism_result

    report = section6_report(
        escat_result("A", fast=fast).trace,
        escat_result("C", fast=fast).trace,
        prism_result("A", fast=fast).trace,
        prism_result("C", fast=fast).trace,
    )
    return report.render()


_register("section6", "Cross-application comparison (paper section 6)",
          _section6)


def _sweep(fast: bool = False, plot: bool = False) -> str:
    from repro.experiments.machine_sweep import machine_sweep

    _data, text = machine_sweep(fast=fast)
    return text


_register("sweep", "Machine-configuration sweep via trace replay "
          "(paper's future work)", _sweep)


def run_experiment(exp_id: str, fast: bool = False, plot: bool = False) -> str:
    """Run one experiment by id, returning its textual output.

    ``plot=True`` appends a terminal rendering for the figures.
    """
    exp = EXPERIMENTS.get(exp_id)
    if exp is None:
        raise AnalysisError(
            f"unknown experiment {exp_id!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        )
    return exp.run(fast=fast, plot=plot)


def list_experiments() -> List[str]:
    return sorted(EXPERIMENTS)
