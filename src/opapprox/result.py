"""ResultReport, the one result shape of every registry row and of the
library functions behind them (``spline_solve``, ``smoothing_solve``,
``owls_min``, ``operator_spline_min``, ``operator_smoothing_min``,
``optimal_inverse``, ``wls_existence_report``,
``spline_equivalence_report``, ``smoothing_equivalence_report``,
``tv_report``, ``hat_equivalence_check``): each returns the report the
CLI renders.  A leaf module, so each problem family builds its reports
without an import cycle."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False, kw_only=True)
class ResultReport:
    """Machine-readable outcome of one manifest execution or report call.

    ``witness`` is the solution found, with its defects in ``residuals``;
    ``conditions`` holds the existence flags a report evaluates and
    ``diagnostics`` the ranks and margins behind them.  ``problem`` and
    the ``seed`` diagnostic are added by ``cli.execute``.
    """

    problem: str = ""
    exists: bool
    min_value: float | None = None
    witness: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    conditions: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
