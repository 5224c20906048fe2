"""Run reports: one schema, three serializations.

Every command produces a RunReport holding the resolved configuration
and a flat list of result rows.  Rows always carry the same six fields

    check_name, sample_index, lhs, rhs, residual, verdict

which is also the normative CSV column set.  JSON adds the config echo,
wall time and an optional details object (iteration traces, witness
matrices); text is a human summary of the same rows.

Determinism: given the same config and seed, the CSV bytes and the JSON
bytes are identical between runs, except for the timestamp and the wall
time, which obviously cannot repeat and are excluded from that contract.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

RESULT_COLUMNS = ("check_name", "sample_index", "lhs", "rhs", "residual", "verdict")

# keys excluded when comparing two reports for reproducibility
VOLATILE_KEYS = ("timestamp", "runtime_ms")


@dataclass(slots=True)
class ExperimentConfig:
    """Resolved run configuration, echoed verbatim into every report."""

    command: str
    interval: tuple[float, float]
    generators: tuple[str, ...]
    generators2: tuple[str, ...]
    which: str | None
    tolerance: float | None
    max_iterations: int
    samples: int
    seed: int
    output_format: str
    points: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "which": self.which,
            "interval": list(self.interval),
            "generators": list(self.generators),
            "generators2": list(self.generators2),
            "tolerance": self.tolerance,
            "max_iterations": self.max_iterations,
            "samples": self.samples,
            "seed": self.seed,
            "output_format": self.output_format,
            "points": list(self.points),
        }


def result_row(check_name: str, sample_index: int, lhs=None, rhs=None,
               residual=None, verdict: str = "") -> dict:
    return {
        "check_name": check_name,
        "sample_index": sample_index,
        "lhs": lhs,
        "rhs": rhs,
        "residual": residual,
        "verdict": verdict,
    }


@dataclass(slots=True)
class RunReport:
    command: str
    config: dict
    results: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    runtime_ms: float = 0.0
    timestamp: str = ""

    def stamp(self, runtime_ms: float) -> "RunReport":
        self.runtime_ms = runtime_ms
        self.timestamp = datetime.now(timezone.utc).isoformat()
        return self

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "runtime_ms": self.runtime_ms,
            "timestamp": self.timestamp,
        }
        if self.details:
            payload["details"] = self.details
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in self.results:
            writer.writerow([_cell(row[c]) for c in RESULT_COLUMNS])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"meanlab {self.command}"]
        cfg = self.config
        gens = ", ".join(cfg.get("generators", ())) or "-"
        lines.append(
            f"  interval {cfg['interval'][0]},{cfg['interval'][1]}"
            f"  generators [{gens}]  seed {cfg['seed']}"
        )
        for row in self.results:
            piece = [f"  {row['check_name']}[{row['sample_index']}]"]
            if row["lhs"] is not None:
                piece.append(f"lhs={_num(row['lhs'])}")
            if row["rhs"] is not None:
                piece.append(f"rhs={_num(row['rhs'])}")
            if row["residual"] is not None:
                piece.append(f"residual={_num(row['residual'])}")
            if row["verdict"]:
                piece.append(row["verdict"])
            lines.append(" ".join(piece))
        for key, value in self.details.items():
            if isinstance(value, str):
                lines.append(f"  {key}: {value}")
        lines.append(f"  done in {self.runtime_ms:.1f} ms")
        return "\n".join(lines) + "\n"

    def render(self, output_format: str) -> str:
        if output_format == "json":
            return self.to_json()
        if output_format == "csv":
            return self.to_csv()
        if output_format == "text":
            return self.to_text()
        raise ValueError(f"unknown output format {output_format!r}")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        # shortest round-trip text; float() first so numpy scalars do not
        # leak their type name into the cell
        return repr(float(v))
    return str(v)


def _num(v) -> str:
    if isinstance(v, float):
        return f"{v:.7g}"
    return str(v)


def strip_volatile(payload: dict) -> dict:
    """Drop the fields outside the determinism contract (for comparing
    two JSON reports in tests)."""
    return {k: v for k, v in payload.items() if k not in VOLATILE_KEYS}
