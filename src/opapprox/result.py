"""ResultReport, the one result shape of every registry row; a leaf
module, so each problem family builds its reports without an import cycle."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False, kw_only=True)
class ResultReport:
    """Machine-readable outcome of one manifest execution."""

    problem: str = ""
    exists: bool
    min_value: float | None = None
    witness: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    conditions: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
