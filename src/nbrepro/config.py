"""Pipeline configuration.

Everything the orchestrator needs in one validated dataclass; values come
from CLI flags, optionally seeded by a JSON config file (flags win). The
stage modules take their default base image and timeouts from here, so
this module imports no other nbrepro module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

DEFAULT_BASE_IMAGE = "python:3.10-slim"
DEFAULT_BUILD_TIMEOUT = 1200.0
DEFAULT_EXECUTION_TIMEOUT = 600.0
DEFAULT_VALIDATION_TIMEOUT = 30.0
# The longest timeout accepted, in seconds (about 11.6 days). The process
# runner's wait takes whole milliseconds as a C int, so a bound past about
# 2.1e6 s fails every call instead of bounding it.
MAX_TIMEOUT = 1_000_000.0
_TIMEOUT_RANGE = f"a number of seconds above 0 and at most {MAX_TIMEOUT:.0f}"


def _valid_timeout(value: object) -> bool:
    """One rule for a timeout from a flag or a config file; NaN fails both
    comparisons and infinity the second."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= MAX_TIMEOUT)


class ConfigError(Exception):
    pass


# What a config-file value must be, by the annotation of its field.
_FILE_VALUE_CHECKS = {
    "list[str]": ("a list of strings", lambda v: isinstance(v, list)
                  and all(isinstance(item, str) for item in v)),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": (_TIMEOUT_RANGE, _valid_timeout),
    "str": ("a string", lambda v: isinstance(v, str)),
    "Path": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "Path | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
}


@dataclass
class PipelineConfig:
    inputs: list[str] = field(default_factory=list)
    store_path: Path = Path("nbrepro.sqlite3")
    logdir: Path = Path("nbrepro_logs")
    artifacts_dir: Path = Path("nbrepro_artifacts")
    report_dir: Path = Path("nbrepro_reports")
    jobs: int = 1
    build_timeout: float = DEFAULT_BUILD_TIMEOUT
    exec_timeout: float = DEFAULT_EXECUTION_TIMEOUT
    validation_timeout: float = DEFAULT_VALIDATION_TIMEOUT
    base_image: str = DEFAULT_BASE_IMAGE
    alias_table_path: Path | None = None
    baseline_path: Path | None = None
    scan_magic_installs: bool = True
    docker_executable: str = "docker"
    cpu_limit: str | None = None
    memory_limit: str | None = None

    def validate(self) -> None:
        if self.jobs < 1:
            raise ConfigError("worker pool size must be at least 1")
        for name in ("build_timeout", "exec_timeout", "validation_timeout"):
            value = getattr(self, name)
            if not _valid_timeout(value):
                raise ConfigError(f"{name} must be {_TIMEOUT_RANGE}, not {value}")

    @classmethod
    def from_file(cls, path: Path | str) -> "PipelineConfig":
        try:
            data = json.loads(Path(path).read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        annotations = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(annotations)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in data.items():
            expected, check = _FILE_VALUE_CHECKS[annotations[key]]
            if not check(value):
                raise ConfigError(
                    f"config key {key!r} must be {expected}, not {json.dumps(value)}")
        config = cls(**data)
        return config.normalized()

    def normalized(self) -> "PipelineConfig":
        for name in ("store_path", "logdir", "artifacts_dir", "report_dir"):
            setattr(self, name, Path(getattr(self, name)))
        for name in ("alias_table_path", "baseline_path"):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, Path(value))
        self.inputs = list(self.inputs)
        return self
