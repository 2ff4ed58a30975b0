"""Experiment harness: scales, the result container and the registry.

The registry maps experiment identifiers (``"fig5"``, ``"table3"``, …) to
driver functions.  Every driver accepts an :class:`ExperimentScale` so that
the same code serves the fast benchmark suite (``small``), exploratory runs
(``medium``) and a longer run that approaches the paper's relative settings
(``large``) — the absolute cardinalities always stay far below the paper's
100K–800K points, which a pure-Python implementation cannot join in
reasonable time (see DESIGN.md, "Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.reporting import format_markdown_table, format_table


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that shrink or grow every experiment consistently.

    Attributes
    ----------
    name:
        ``"tiny"``, ``"small"``, ``"medium"`` or ``"large"``.
    base_cardinality:
        The default per-dataset cardinality ``n`` (the paper's default is
        100K; the reproduction defaults to 800 for the benchmark suite).
    sweep_cardinalities:
        Datasizes used where the paper sweeps 100K–800K (Figures 6, 8b, 10a,
        11a).
    single_cell_queries:
        Number of individual Voronoi-cell queries for Figure 5 (paper: 100).
    real_dataset_scale:
        Divisor applied to the real datasets' cardinalities (Table I).
    """

    name: str
    base_cardinality: int
    sweep_cardinalities: Sequence[int]
    single_cell_queries: int
    real_dataset_scale: int


SCALES: Dict[str, ExperimentScale] = {
    "tiny": ExperimentScale("tiny", 150, (100, 200, 300), 20, 600),
    "small": ExperimentScale("small", 800, (400, 800, 1600, 2400), 100, 150),
    "medium": ExperimentScale("medium", 2000, (1000, 2000, 4000, 6000), 100, 60),
    "large": ExperimentScale("large", 5000, (2000, 5000, 10000, 20000), 100, 25),
}

DEFAULT_SCALE_NAME = "small"


def get_scale(name: Optional[str] = None) -> ExperimentScale:
    """Look up a scale by name (defaults to ``small``)."""
    key = (name or DEFAULT_SCALE_NAME).lower()
    try:
        return SCALES[key]
    except KeyError:
        known = ", ".join(sorted(SCALES))
        raise ValueError(f"unknown scale {key!r}; expected one of {known}") from None


@dataclass
class ExperimentResult:
    """Rows reproducing one paper artefact, plus provenance metadata."""

    experiment_id: str
    title: str
    paper_reference: str
    columns: List[str]
    rows: List[List] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append one row (must match the column count)."""
        row = list(values)
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} values but the table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def add_note(self, note: str) -> None:
        """Attach a free-form observation to the result."""
        self.notes.append(note)

    def to_text(self) -> str:
        """Human-readable rendering used by the CLI and the benchmark logs."""
        header = f"== {self.experiment_id}: {self.title} ==\n({self.paper_reference})\n"
        body = format_table(self.columns, self.rows)
        notes = "".join(f"\nnote: {note}" for note in self.notes)
        return header + body + notes

    def to_markdown(self) -> str:
        """Markdown rendering used to refresh EXPERIMENTS.md."""
        header = f"### {self.experiment_id} — {self.title}\n\n*{self.paper_reference}*\n\n"
        body = format_markdown_table(self.columns, self.rows)
        notes = "".join(f"\n- {note}" for note in self.notes)
        return header + body + ("\n" + notes if notes else "")


DriverFn = Callable[[ExperimentScale], ExperimentResult]
_REGISTRY: Dict[str, DriverFn] = {}


def register(experiment_id: str) -> Callable[[DriverFn], DriverFn]:
    """Decorator adding a driver to the experiment registry."""

    def wrap(fn: DriverFn) -> DriverFn:
        _REGISTRY[experiment_id] = fn
        return fn

    return wrap


def list_experiments() -> List[str]:
    """Identifiers of every registered experiment."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def run_experiment(experiment_id: str, scale: Optional[str] = None) -> ExperimentResult:
    """Run one experiment by identifier at the given scale."""
    _ensure_loaded()
    try:
        driver = _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown experiment {experiment_id!r}; expected one of {known}"
        ) from None
    return driver(get_scale(scale))


def _ensure_loaded() -> None:
    """Import driver modules lazily so registration side effects happen."""
    # Imported here (not at module import time) to avoid circular imports
    # between the harness and the drivers.
    from repro.experiments import drivers as _drivers  # noqa: F401
