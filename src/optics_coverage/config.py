"""Run configuration: INI file parsing, defaults, validation, overrides.

Every protocol constant is surfaced here with its standard default
(acceptance-level weights 0.4/0.3/0.2, coverage radius 5 m, clustering
eps 10 m, redundancy threshold 0.1) so experiments never depend on values
buried in code. Each key is declared once, as a ``RunConfig`` field whose
metadata names its INI section; parsing, the unknown-key check and the
default INI file are derived from the fields.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from typing import Sequence

from .network import BATTERY_RANGE, require_count, require_generation_args
from .optics import OpticsParams
from .protocol import ProtocolConfig


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_PROTOCOL = ProtocolConfig()


def _ini(section: str, default, key: str | None = None, note: str | None = None):
    """A field stored as ``key`` (default: the field name) under ``[section]``;
    ``note`` is printed above it in the default INI file."""
    return field(default=default, metadata={"section": section, "key": key, "note": note})


@dataclass
class RunConfig:
    count: int = _ini("deployment", 100)
    width: float = _ini("deployment", 50.0)
    height: float = _ini("deployment", 50.0)
    radius: float = _ini("deployment", 5.0)
    seed: int = _ini("deployment", 42)
    battery_min: float = _ini("deployment", BATTERY_RANGE[0])
    battery_max: float = _ini("deployment", BATTERY_RANGE[1])
    eps: float | None = _ini("optics", None, note="blank eps means 2 * radius")
    min_pts: int = _ini("optics", 4)
    eps_prime: float | None = _ini(
        "optics", None, note="blank eps_prime means eps / 2"
    )
    theta: float = _ini("protocol", _PROTOCOL.theta)
    battery_drain: float = _ini("protocol", _PROTOCOL.battery_drain)
    sleep_rounds: int = _ini("protocol", _PROTOCOL.sleep_rounds)
    w_battery: float = _ini("protocol", _PROTOCOL.w_battery)
    w_neighbors: float = _ini("protocol", _PROTOCOL.w_neighbors)
    w_distance: float = _ini("protocol", _PROTOCOL.w_distance)
    d_list: tuple[int, ...] = _ini(
        "experiment", (100, 150, 200, 250, 300, 350, 400, 450, 500)
    )
    trials: int = _ini("experiment", 3)
    rounds: int = _ini("experiment", 1)
    grid_resolution: int = _ini("experiment", _PROTOCOL.grid_resolution)
    output_dir: str = _ini("output", "out", key="dir")

    @property
    def resolved_eps(self) -> float:
        return self.eps if self.eps is not None else 2 * self.radius

    def optics_params(self) -> OpticsParams:
        return OpticsParams(self.resolved_eps, self.min_pts, self.eps_prime)

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            **{f.name: getattr(self, f.name) for f in fields(ProtocolConfig)}
        )

    def generation_args(self, seed: int) -> tuple:
        """The arguments of ``generate_deployment`` after the count, at ``seed``."""
        return self.width, self.height, self.radius, seed, (self.battery_min, self.battery_max)

    def validate(self, sweep: bool = True) -> None:
        """``ConfigError`` for a value the library would refuse; ``sweep=False``
        skips the keys only the sweep reads: d_list, rounds."""
        layout = self.generation_args(self.seed)
        try:
            require_generation_args(self.count, *layout)
            self.optics_params()
            self.protocol_config()
            require_count("experiment.trials", self.trials, 1)
            if sweep:
                require_count("experiment.rounds", self.rounds, 1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.resolved_eps < self.radius:
            raise ConfigError(
                f"optics.eps = {self.resolved_eps} is below the coverage radius "
                f"{self.radius}: the request range 2r must fit inside the "
                f"clustering neighborhood (2r <= 2*eps requires eps >= r)"
            )
        if not sweep:
            return
        if not self.d_list:
            raise ConfigError("experiment.d_list must list deployment sizes >= 1")
        if len(set(self.d_list)) < len(self.d_list):
            # a repeat would re-run its size's seeds and overwrite its traces
            raise ConfigError(f"experiment.d_list lists a size twice: {self.d_list}")
        for size in self.d_list:
            try:
                require_generation_args(size, *layout)
            except ValueError as exc:
                raise ConfigError(f"experiment.d_list: {exc}") from exc


def _optional_float(raw: str) -> float | None:
    return float(raw) if raw.strip() else None


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


# RunConfig field annotation -> (parser of the INI text, what the text must be)
_PARSERS = {
    "int": (int, "an int"),
    "float": (float, "a float"),
    "float | None": (_optional_float, "a float or blank"),
    "tuple[int, ...]": (_int_tuple, "a comma-separated int list"),
    "str": (str.strip, "a string"),
}


def _ini_key(f) -> str:
    return f.metadata["key"] or f.name


_FIELDS = {(f.metadata["section"], _ini_key(f)): f for f in fields(RunConfig)}


def _apply_key(config: RunConfig, section: str, key: str, raw: str) -> RunConfig:
    f = _FIELDS.get((section, key))
    if f is None:
        raise ConfigError(f"unknown config key [{section}] {key}")
    parse, expected = _PARSERS[f.type]
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not {expected}") from exc
    return replace(config, **{f.name: value})


def load_config(path: str | None = None, overrides: Sequence[str] = ()) -> RunConfig:
    """Defaults, then the INI file (if any), then KEY=VALUE overrides.

    Overrides use the form ``section.key=value``, e.g.
    ``protocol.theta=0.25``.
    """
    config = RunConfig()
    if path is not None:
        # values are read literally: no key is built by % interpolation
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config file {path!r}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                config = _apply_key(config, section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        config = _apply_key(config, section.strip(), key.strip(), raw)
    return config


def _ini_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


def default_ini() -> str:
    """Template config file with every key at its default."""
    sections = []
    for section, group in groupby(fields(RunConfig), lambda f: f.metadata["section"]):
        lines = [f"[{section}]\n"]
        for f in group:
            if f.metadata["note"]:
                lines.append(f"; {f.metadata['note']}\n")
            lines.append(f"{_ini_key(f)} = {_ini_text(f.default)}".rstrip() + "\n")
        sections.append("".join(lines))
    return "\n".join(sections)
