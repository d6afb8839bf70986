"""Output checks: what each workload's outputs must be.

The numbers compared are read from the artifacts the program writes, never
from its in-memory objects. Floating-point results are compared within
`TOLERANCE` rather than by exact digest, because a refactor may change
floating-point reduction order; counts must match exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from pathlib import Path

import numpy as np

# abs: R^2, accuracy and AUROC; rel: L1 and L2 norms of each weight vector
TOLERANCE = {"abs": 1e-6, "rel": 1e-6}

REPRESENTATIONS = ("raw", "emb", "out")
_WEIGHT_HEADER = 8  # "GLP1", u16 version, u8 parameter id, u8 certainty threshold
_WEIGHT_COUNT = 516


def read_manifest(out_dir: Path) -> dict[str, str]:
    """Artifact name -> sha256 as listed in the run's manifest."""
    return json.loads((Path(out_dir) / "manifest.json").read_text())["artifacts"]


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def weight_summary(out_dir: Path) -> tuple[dict[str, list[float]], dict[str, int]]:
    """Per parameter: [L1 norm, L2 norm] of the stored weights, and the CRC-32
    of the payload the downstream report fingerprints."""
    norms, crcs = {}, {}
    for path in sorted(Path(out_dir).glob("weights_*.glp")):
        blob = path.read_bytes()
        payload = blob[:-4]
        name = path.stem[len("weights_"):]
        crcs[name] = zlib.crc32(payload)
        norms[name] = []  # a malformed file has no norms and fails the comparison
        if len(payload) == _WEIGHT_HEADER + 8 * _WEIGHT_COUNT:
            weights = np.frombuffer(payload[_WEIGHT_HEADER:], dtype="<f8")
            norms[name] = [float(np.abs(weights).sum()), float(np.sqrt(weights @ weights))]
    return norms, crcs


def summary(out_dir: Path) -> dict:
    """What the checks compare, read from a run directory holding a pretrain
    report, the six weight files and the downstream report."""
    out_dir = Path(out_dir)
    manifest = read_manifest(out_dir)
    pretrain = json.loads((out_dir / "pretrain_report.json").read_text())
    downstream = json.loads((out_dir / "downstream_report.json").read_text())
    norms, crcs = weight_summary(out_dir)
    return {
        "artifacts": len(manifest),
        "manifest_matches_files": all(
            file_sha256(out_dir / name) == digest for name, digest in manifest.items()
        ),
        "mean_r2": pretrain["mean_r2"],
        "averaged": {
            rep: {metric: downstream["averaged"][rep][metric] for metric in ("accuracy", "auroc")}
            for rep in REPRESENTATIONS
        },
        "weights": norms,
        "checksums_match_weights": downstream["model_checksums"] == crcs,
    }


def _close(got: float, want: float, tol: float) -> bool:
    return math.isclose(got, want, rel_tol=0.0, abs_tol=tol)


def compare(found: dict, reference: dict | None, artifacts: int) -> list[str]:
    """Problems found in a study or transfer summary; empty when it passes.

    Without a stored reference only the reference-free checks run."""
    problems = []
    if found["artifacts"] != artifacts:
        problems.append(f"{found['artifacts']} artifacts, want {artifacts}")
    if not found["manifest_matches_files"]:
        problems.append("manifest sha256 differs from the artifact files")
    if not found["checksums_match_weights"]:
        problems.append("downstream model checksums differ from the weight files")
    if reference is None:
        return problems
    if not _close(found["mean_r2"], reference["mean_r2"], TOLERANCE["abs"]):
        problems.append(f"pretrain mean R^2 {found['mean_r2']!r}, want {reference['mean_r2']!r}")
    for rep in REPRESENTATIONS:
        for metric in ("accuracy", "auroc"):
            got = found["averaged"][rep][metric]
            want = reference["averaged"][rep][metric]
            if not _close(got, want, TOLERANCE["abs"]):
                problems.append(f"averaged {metric} ({rep}) {got!r}, want {want!r}")
    if sorted(found["weights"]) != sorted(reference["weights"]):
        problems.append(f"weight files {sorted(found['weights'])}, want {sorted(reference['weights'])}")
        return problems
    for name, want in reference["weights"].items():
        got = found["weights"][name]
        if len(got) != len(want) or not all(
            math.isclose(g, w, rel_tol=TOLERANCE["rel"]) for g, w in zip(got, want)
        ):
            problems.append(f"weights_{name} norms {got}, want {want}")
    return problems


def compare_counts(counts: dict[str, int], reference: dict[str, int] | None) -> list[str]:
    """Ingest counts must equal the stored reference exactly."""
    if reference is None:
        return []
    keys = sorted(set(counts) | set(reference))
    return [
        f"{key} = {counts.get(key)}, want {reference.get(key)}"
        for key in keys
        if counts.get(key) != reference.get(key)
    ]
