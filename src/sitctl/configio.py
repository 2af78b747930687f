"""Config schema and parsing, and trajectory CSV I/O.

Config format: `#` comments, `[params]` / `[controller]` / `[sim]`
sections, one `key = value` per line.  :data:`SECTION_KEYS` is the
schema: each key and the converter its value goes through.  Parse errors
carry the line number and, for unknown keys, the nearest valid key.
"""
from __future__ import annotations

import difflib
import math
from pathlib import Path

import numpy as np

from .model import PARAM_KEYS, BioParams
from .simulate import Trajectory


def finite_float(text: str) -> float:
    """``float(text)``; nan and +-inf are a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


#: The ``[sim]`` keys that set the initial state; the others are ScenarioConfig fields.
INITIAL_KEYS = ("F0", "F0_ratio", "Ms0", "E0", "M0")

#: section -> key -> converter of its value.
SECTION_KEYS = {
    "params": dict.fromkeys(PARAM_KEYS, finite_float),
    "controller": dict.fromkeys(("F_hat", "F_hat_ratio", "eps", "eta", "rho", "F2"), finite_float)
    | {"variant": str, "cutoff_kind": str},
    "sim": {"model": str, "t_end": finite_float, "dt": finite_float, "record_every": int}
    | dict.fromkeys(INITIAL_KEYS + ("extinction_threshold",), finite_float),
}


class ConfigError(ValueError):
    """Malformed config text; message includes the offending line number."""


def parse_config_text(text: str, source: str = "<config>", section: str | None = None) -> dict[str, dict]:
    """Parse sectioned key=value text into {section: {key: typed value}}; lines before any header go to ``section``."""
    sections: dict[str, dict] = {} if section is None else {section: {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTION_KEYS:
                raise ConfigError(
                    f"{source}:{lineno}: unknown section [{section}]; expected one of "
                    + ", ".join(f"[{s}]" for s in SECTION_KEYS)
                )
            sections.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        schema, current = SECTION_KEYS[section], sections[section]
        if key not in schema:
            hint = difflib.get_close_matches(key, schema, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in [{section}]{suggestion}")
        if key in current:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            current[key] = schema[key](value)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: [{section}] {key}: invalid value {value!r}") from None
    return sections


def read_config(path) -> dict[str, dict]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    return parse_config_text(text, source=str(path))


def params_from_mapping(mapping: dict) -> BioParams:
    """Build BioParams from a flat key -> number (or number string) mapping (Table naming)."""
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
    return params_from_mapping(parse_config_text(text, source="<params>", section="params")["params"])


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """RFC-4180 CSV of :meth:`Trajectory.table`: header t,F,Ms[,E,M],u[,V], 17 significant digits, CRLF line ends."""
    header, data = traj.table()
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", encoding="ascii", newline="") as out:
        out.write(",".join(header) + "\r\n" + "".join(row % tuple(values) for values in data.tolist()))


def read_trajectory_csv(path):
    """Read a trajectory CSV back as (header, 2-D array with one row per sample)."""
    with Path(path).open() as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)
