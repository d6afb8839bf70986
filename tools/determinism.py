"""Determinism gate: the artifact sha256 values of `glp all` on eleven configs.

Runs `glp all` from this checkout's `src/` on each config below, one after
the other, and prints one JSON object mapping each config name to its
manifest's `{artifact: sha256}`, plus the sha256 of the manifest's `config`
echo under `manifest.json:config`. Each run writes to a directory named
after its config, relative to a fresh working directory, so the echo holds
no temporary path. Run it in two checkouts and diff the outputs: a refactor
that keeps behaviour leaves every value unchanged.

    python tools/determinism.py > artifacts.json

BLAS is pinned to one thread, so float reductions are ordered the same way
from run to run. The default config alone takes minutes; the others seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from glp.cli import main  # noqa: E402

_QUICK_TRAIN = {"epochs": 2, "folds": 2}
_STUDY = {"downstream": {"n_positive": 20, "n_negative": 100}, "transfer": {"repetitions": 2}}


def _study(seed: int, **extra) -> dict:
    return {"seed": seed, **_STUDY, "train": dict(_QUICK_TRAIN), **extra}


def _small(**train) -> dict:
    return {**_study(5), "pretext": {"n_patients": 120}, "train": {**_QUICK_TRAIN, **train}}


CONFIGS: dict[str, dict] = {
    "default": {"seed": 0},
    "study-s0": _study(0),
    "study-s3": _study(3),
    "study-s7": _study(7),
    "sweep": _small(certain="sweep"),
    "hybrid": _small(method="hybrid"),
    "ssl": _small(method="ssl"),
    "supervised": _small(method="supervised"),
    "study-s3-jobs2": _study(3, jobs=2),
    "sweep-jobs2": {**_small(certain="sweep"), "jobs": 2},
    # from eight repetitions on, numpy's pairwise summation departs from plain order
    "study-s3-reps9": {**_study(3), "transfer": {"repetitions": 9}},
}


def run(name: str) -> dict[str, str]:
    """`glp all` on one config in the working directory; its manifest's
    artifact hashes and the hash of its config echo."""
    path = Path(f"{name}.json")
    path.write_text(json.dumps({**CONFIGS[name], "out_dir": name}))
    with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the JSON
        code = main(["all", "--config", str(path)])
    if code != 0:
        raise SystemExit(f"glp all exited {code} on config {name}")
    manifest = json.loads((Path(name) / "manifest.json").read_text())
    echo = json.dumps(manifest["config"], sort_keys=True).encode()
    return {**manifest["artifacts"], "manifest.json:config": hashlib.sha256(echo).hexdigest()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        print(json.dumps({name: run(name) for name in CONFIGS}, indent=2, sort_keys=True))
