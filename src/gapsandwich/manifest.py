"""Run manifests: every CSV output is paired with one JSON manifest
recording the command, config, seed, version, numpy's version and SIMD
dispatch, wall time and output digests."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

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


@dataclass
class RunManifest:
    command_line: list[str]
    config: dict
    base_seed: int
    version: str
    wall_time_s: float = 0.0
    outputs: dict[str, str] = field(default_factory=dict)

    def add_output(self, path: str) -> None:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
        self.outputs[path] = digest.hexdigest()

    def write(self, path: str) -> None:
        body = {
            "command_line": self.command_line,
            "config": self.config,
            "base_seed": self.base_seed,
            "version": self.version,
            "numpy": numpy_runtime(),
            "wall_time_s": self.wall_time_s,
            "outputs": self.outputs,
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")


def manifest_path_for(csv_path: str) -> str:
    return csv_path + ".manifest.json"
