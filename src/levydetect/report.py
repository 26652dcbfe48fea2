"""Monte Carlo estimate reports and artifact serialization helpers."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import List, Mapping, Optional, Sequence

__all__ = ["Provenance", "EvalReport", "write_csv", "write_json"]


@dataclass(frozen=True)
class Provenance:
    """Everything needed to reproduce an estimate."""

    master_seed: int
    grid_dt: float
    delta: float
    rule: str
    model_digest: str
    regime: str = ""
    stream_block: int = 0


@dataclass(frozen=True)
class EvalReport:
    """A Monte Carlo estimate with its uncertainty and censoring bookkeeping.

    Censored replications contribute their censored value to the estimate and
    are counted in ``n_censored`` (never silently dropped); any nonzero count
    flags a downward bias for stopping-time means.
    """

    estimate: float
    std_error: float
    n_rep: int
    n_censored: int
    horizon: float
    provenance: Provenance
    label: str = ""

    def within(self, target: float, n_se: float = 3.0) -> bool:
        """Is the target inside estimate +- n_se standard errors?"""
        return abs(self.estimate - target) <= n_se * self.std_error

    @property
    def usable(self) -> bool:
        """False when every replication censored (estimate carries no signal)."""
        return self.n_censored < self.n_rep

    def to_row(self) -> dict:
        row = {
            "label": self.label,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_rep": self.n_rep,
            "n_censored": self.n_censored,
            "horizon": self.horizon,
        }
        row.update({f"prov_{k}": v for k, v in asdict(self.provenance).items()})
        return row

    def to_dict(self) -> dict:
        out = asdict(self)
        return out


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def write_csv(path, rows: Sequence[Mapping], columns: Optional[List[str]] = None) -> None:
    """Write rows with deterministic formatting (repr for floats)."""
    rows = list(rows)
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(row.get(c, "")) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload: Mapping) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
