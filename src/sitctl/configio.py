"""Flat `key = value` config files and trajectory CSV I/O.

Config format: `#` comments, `[params]` / `[controller]` / `[sim]`
sections, one `key = value` per line.  Parse errors carry the line number
and, for unknown keys, the nearest valid key.
"""
from __future__ import annotations

import csv
import difflib
from pathlib import Path

from .model import PARAM_KEYS, BioParams
from .simulate import Trajectory

CONTROLLER_KEYS = ("F_hat", "F_hat_ratio", "eps", "eta", "rho", "F2", "variant", "cutoff_kind")
SIM_KEYS = (
    "model", "t_end", "dt", "record_every",
    "F0", "F0_ratio", "Ms0", "E0", "M0", "extinction_threshold",
)
SECTION_KEYS = {"params": PARAM_KEYS, "controller": CONTROLLER_KEYS, "sim": SIM_KEYS}


class ConfigError(ValueError):
    """Malformed config text; message includes the offending line number."""


def parse_config_text(text: str, source: str = "<config>") -> dict[str, dict[str, str]]:
    """Parse sectioned key=value text into {section: {key: raw value}}."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTION_KEYS:
                raise ConfigError(
                    f"{source}:{lineno}: unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in SECTION_KEYS)
                )
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        section_name = next(name for name, sec in sections.items() if sec is current)
        valid = SECTION_KEYS[section_name]
        if key not in valid:
            hint = difflib.get_close_matches(key, valid, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in [{section_name}]{suggestion}")
        if key in current:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        current[key] = value
    return sections


def read_config(path) -> dict[str, dict[str, str]]:
    path = Path(path)
    return parse_config_text(path.read_text(), source=str(path))


def params_from_mapping(mapping: dict[str, str]) -> BioParams:
    """Build BioParams from a flat key -> value-string mapping (Table naming)."""
    missing = [k for k in PARAM_KEYS if k not in mapping]
    if missing:
        raise ConfigError(f"[params] is missing keys: {', '.join(missing)}")
    values = {}
    for key in PARAM_KEYS:
        try:
            values[key] = float(mapping[key])
        except ValueError:
            raise ConfigError(f"[params] {key}: not a number: {mapping[key]!r}") from None
    return BioParams(**values)


def params_to_text(p: BioParams) -> str:
    """Flat key=value block in Table order, full double precision."""
    return "\n".join(f"{key} = {getattr(p, key)!r}" for key in PARAM_KEYS) + "\n"


def params_from_text(text: str) -> BioParams:
    """Inverse of :func:`params_to_text` (sectionless flat block)."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in PARAM_KEYS:
            hint = difflib.get_close_matches(key, PARAM_KEYS, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"line {lineno}: unknown key {key!r}{suggestion}")
        mapping[key] = value
    return params_from_mapping(mapping)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """RFC-4180 CSV, header t,F,Ms[,E,M],u[,V], 17 significant digits."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(traj.columns())
        for row in traj.rows():
            writer.writerow(_fmt(x) for x in row)


def read_trajectory_csv(path):
    """Read a trajectory CSV back as (header, rows of floats)."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    return header, rows
