"""The problem-kind registry: one row per accepted role set of a problem kind.

Each row names a kind, the roles its manifest must provide, whether it
needs ``p``, and the builder that turns a validated manifest into a
ResultReport.  A kind that accepts several role sets (``report``) has one
row per set.  Each builder lives beside the solver it runs, in that
family's module, and reads every residual, rank and nullity off what the
solver computed.  Adding a problem kind means adding one row and one
builder.

Builders leave ``problem`` and the ``seed`` diagnostic out of their
reports; ``cli.execute`` adds both to every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Callable

from . import smoothing, spline, wls
from .errors import DimensionError
from .result import ResultReport

if TYPE_CHECKING:
    from .manifest import ProblemManifest

# the module: the package attribute of that name is the re-exported function
shorted = import_module(".shorted", __package__)


@dataclass(frozen=True)
class Problem:
    """One registry row: a problem kind with one role set it accepts."""

    kind: str
    roles: tuple
    handler: Callable[[ProblemManifest], ResultReport]
    needs_p: bool = False


REGISTRY = (
    Problem("wls", ("A", "W", "x"), wls._build_wls),
    Problem("w-inverse", ("A", "W"), wls._build_w_inverse),
    Problem("owls", ("A", "W"), wls._build_owls, needs_p=True),
    Problem("spline", ("T", "V", "f0"), spline._build_spline),
    Problem("op-spline", ("T", "V", "B0"), spline._build_op_spline, needs_p=True),
    Problem("smoothing", ("T", "V", "f0"), smoothing._build_smoothing),
    Problem("op-smoothing", ("T", "V", "B0"), smoothing._build_op_smoothing),
    Problem("opt-inverse", ("A", "W11", "W12", "W22"), smoothing._build_opt_inverse),
    Problem("shorted", ("W", "S"), shorted._build_shorted),
    Problem("compat", ("W", "S"), shorted._build_compat),
    Problem("report", ("A", "W"), wls._build_report),
    Problem("report", ("T", "V"), smoothing._build_tv_report),
    Problem("report", ("A", "W11", "W12", "W22"), smoothing._build_hat_report),
)

PROBLEMS = tuple(dict.fromkeys(row.kind for row in REGISTRY))
ROLES = tuple(dict.fromkeys(role for row in REGISTRY for role in row.roles))


def lookup(manifest: ProblemManifest) -> Problem:
    """The registry row matching the manifest's kind and role set.

    A role set that fits no row, a missing ``p``, or an ``x`` or ``f0``
    that is not n-by-1 is a DimensionError.
    """
    present = set(manifest.matrices)
    rows = [row for row in REGISTRY if row.kind == manifest.problem]
    for row in rows:
        if present == set(row.roles):
            if row.needs_p and manifest.p is None:
                raise DimensionError(f"problem {row.kind!r} requires p")
            for role in present & {"x", "f0"}:
                shape = manifest.matrices[role].shape
                if shape[1] != 1:
                    raise DimensionError(
                        f"role {role} must be a column vector (n-by-1), got {shape}"
                    )
            return row
    if len(rows) > 1:
        role_sets = tuple(row.roles for row in rows)
        raise DimensionError(
            f"{manifest.problem} requires exactly one of the role sets {role_sets}, "
            f"got {sorted(present)}"
        )
    required = set(rows[0].roles)
    raise DimensionError(
        f"problem {manifest.problem!r} needs roles {sorted(required)}; "
        f"missing {sorted(required - present)}, unexpected {sorted(present - required)}"
    )
