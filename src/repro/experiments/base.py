"""Shared experiment infrastructure.

Every driver module exposes ``run(fast=..., seed=...) -> ExperimentResult``.
Results carry printable text tables (the paper's rows/series) plus the raw
data dictionaries the tests and benches assert against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Output of one experiment driver.

    Attributes
    ----------
    name:
        Experiment id ("fig4", "eq2", ...).
    title:
        One-line description (matches the paper's figure caption theme).
    tables:
        Ordered mapping of section title -> pre-rendered text table/diagram.
    data:
        Raw values for programmatic checks (tests, benches, EXPERIMENTS.md).
    notes:
        Free-form observations (e.g. paper-vs-measured comparisons).
    """

    name: str
    title: str
    tables: dict[str, str] = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Full printable report of the experiment."""
        parts = [f"=== {self.name}: {self.title} ==="]
        for section, table in self.tables.items():
            parts.append(f"\n--- {section} ---")
            parts.append(table)
        if self.notes:
            parts.append("\nNotes:")
            for n in self.notes:
                parts.append(f"  * {n}")
        return "\n".join(parts)
