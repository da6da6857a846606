"""CSV outputs and their run manifests.

write_csv writes every CSV the package emits, under one field rule: a
float by repr, so it reads back bit for bit; an int by str; text RFC
4180-quoted when it holds a comma, a quote or a line break.  Every CSV
output is paired with one JSON manifest recording the command, config,
seed, version, numpy's version and SIMD dispatch, wall time, and the
SHA-256 of the files the command wrote (outputs) and read (inputs)."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath


def numpy_runtime() -> dict:
    """numpy's version and SIMD dispatch: the baseline features it was built
    for and the dispatched features this CPU has.  log, exp and log1p round
    differently under different dispatch, so a seed's output bits hold for
    one numpy version on one dispatch."""
    return {
        "version": np.__version__,
        "simd_baseline": list(_umath.__cpu_baseline__),
        "simd_dispatched": [name for name in _umath.__cpu_dispatch__
                            if _umath.__cpu_features__.get(name)],
    }


def _field(value: object) -> str:
    if isinstance(value, float):
        return repr(float(value))  # numpy's float64 reprs as np.float64(...)
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n\r'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return str(value)


def write_csv(path: str, header: str, rows: Iterable[tuple]) -> None:
    """Write header, a line of column names, then one line per row tuple,
    each value by the module's field rule; UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        # Most values are Python floats; repr them without a call to _field.
        fh.writelines(",".join([repr(v) if type(v) is float else _field(v)
                                for v in row]) + "\n" for row in rows)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command_line: list[str]
    config: dict
    base_seed: int
    version: str
    wall_time_s: float = 0.0
    outputs: dict[str, str] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)

    def add_output(self, path: str) -> None:
        self.outputs[path] = _sha256(path)

    def add_input(self, path: str) -> None:
        self.inputs[path] = _sha256(path)

    def write(self, path: str) -> None:
        body = {
            "command_line": self.command_line,
            "config": self.config,
            "base_seed": self.base_seed,
            "version": self.version,
            "numpy": numpy_runtime(),
            "wall_time_s": self.wall_time_s,
            "outputs": self.outputs,
            "inputs": self.inputs,
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")


def manifest_path_for(csv_path: str) -> str:
    return csv_path + ".manifest.json"
