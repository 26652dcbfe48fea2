"""Monte Carlo estimate reports and artifact serialization helpers."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Mapping, Optional, Sequence, Union

__all__ = ["Provenance", "EvalReport", "format_value", "write_csv", "write_json"]


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


def format_value(v) -> str:
    """A CSV cell: true/false for a bool, repr for a float (so NaN is nan)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, rows: Union[Sequence[Mapping], Mapping[str, Sequence[str]]],
              columns: Optional[List[str]] = None) -> None:
    """Write rows with deterministic formatting (:func:`format_value`).
    ``rows`` is a sequence of row mappings, or one mapping of each column's
    name to its cells, already formatted, which gives the columns."""
    if isinstance(rows, Mapping):
        columns, lines = list(rows), map(",".join, zip(*rows.values()))
    else:
        rows = list(rows)
        if columns is None:
            columns = list(rows[0].keys()) if rows else []
        lines = (",".join(format_value(row.get(c, "")) for c in columns) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join([",".join(columns), *lines]) + "\n")


def write_json(path, payload: Mapping) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
