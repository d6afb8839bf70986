"""Command-line entry point for the full study.

Subcommands:

    glp synth     generate the pretext and episodic cohort CSVs
    glp pretrain  train the six per-parameter forecasters (optionally
                  sweeping the certainty threshold) and write weight files
    glp transfer  run the downstream classification study from the frozen
                  weight files
    glp all       synth + pretrain + transfer
    glp verify    check weight-file integrity

One seed in the config reproduces the entire study: every component derives
its own stream from it. Each command writes its artifacts plus a manifest
(config echo, seed, sha256 per artifact, format versions) under --out.

Every setting is checked at load; an invalid one exits 2 before any output exists.
Counts are capped: n_patients and n_positive + n_negative at 99,999, jobs at 64,
train.epochs at 10,000 and transfer.repetitions at 1,000.

Exit codes: 0 success, 2 invalid config, 3 missing artifact, 4 data/schema
error, 5 integrity failure, 6 training/evaluation error, 1 unexpected.

The GLP_LOG environment variable sets log verbosity (DEBUG/INFO/WARNING/ERROR).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .artifacts import write_json
from .cohort import (
    PARAMETER_ORDER,
    DownstreamSpec,
    GeneratorSpec,
    generate_downstream_cohort,
    generate_pretext_cohort,
    read_cohort_csv,
    read_episodic_csv,
    write_cohort_csv,
    write_episodic_csv,
)
from .errors import ConfigError, GlpError, MissingArtifactError, SchemaError
from .interp import InterpMethod
from .netcore import FORMAT_VERSION, load_weights, save_weights
from .pipeline import (
    TrainConfig,
    TrainMethod,
    cross_validate,
    report_to_dict as pretrain_report_to_dict,
    sweep_certain,
    train_final_models,
    write_certain_grid_csv,
)
from .seeding import derive_seed
from .transfer import (
    MAX_REPETITIONS,
    report_to_dict as downstream_report_to_dict,
    run_downstream_study,
    write_distribution_csv,
    write_downstream_table_csv,
)

logger = logging.getLogger(__name__)

MAX_JOBS = 64  # fixed, so that a config valid on one machine is valid on all

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out_dir": "runs/study",
    "jobs": 1,
    "pretext": {
        "n_patients": 240,
        "months_span": 24,
        "visit_period_mean": 3.0,
        "dropout_prob": 0.15,
    },
    "downstream": {
        "n_positive": 42,
        "n_negative": 441,
        "separation": 1.0,
        "g_mean_positive": 9.0,
        "g_mean_negative": 106.0,
    },
    "train": {
        "method": "two-stage",
        "interp": "linear",
        "certain": 3,
        "epochs": 50,
        "batch_size": 8,
        "learning_rate": 1e-3,
        "folds": 5,
        "split_ratio": 0.8,
    },
    "transfer": {
        "repetitions": 5,
        "split_ratio": 0.8,
    },
}


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object")
            merged[key] = _merge(defaults[key], value, where)
        elif not _same_type(defaults[key], value) and (where, value) != ("train.certain", "sweep"):
            raise ConfigError(f"{where} must be {type(defaults[key]).__name__}, got {value!r}")
        else:
            merged[key] = value
    return merged


def _same_type(default, value) -> bool:
    """A bool never passes for an int; an int passes where a float is expected."""
    expected = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, bool) == isinstance(default, bool) and isinstance(value, expected)


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise MissingArtifactError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError("config file nests too deeply")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(DEFAULT_CONFIG, data)


def _certain_value(text: str):
    """The --certain text, its range checked by the `TrainConfig` it will set."""
    try:
        return "sweep" if text == "sweep" else TrainConfig(certain=int(text)).certain
    except (ValueError, ConfigError):
        raise argparse.ArgumentTypeError("certain must be 0..5 or 'sweep'")


class Specs(NamedTuple):
    """A loaded config, every setting checked, and the specs built from it."""

    config: dict
    pretext: GeneratorSpec
    downstream: DownstreamSpec
    train: TrainConfig


def build_specs(config: dict) -> Specs:
    """Check every setting of a loaded config, once: each spec checks its own
    section; jobs and the transfer settings, which no spec holds, are checked here."""
    if not 1 <= config["jobs"] <= MAX_JOBS:
        raise ConfigError(f"jobs must be >= 1 and <= {MAX_JOBS}")
    if not 1 <= config["transfer"]["repetitions"] <= MAX_REPETITIONS:
        raise ConfigError(f"transfer.repetitions must be >= 1 and <= {MAX_REPETITIONS}")
    if not 0.0 < config["transfer"]["split_ratio"] < 1.0:
        raise ConfigError("transfer.split_ratio must be in (0, 1)")
    train = config["train"]
    try:
        method = TrainMethod(train["method"])
        interp = InterpMethod(train["interp"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    return Specs(
        config,
        GeneratorSpec(seed=derive_seed(config["seed"], "pretext"), **config["pretext"]),
        DownstreamSpec(seed=derive_seed(config["seed"], "downstream"), **config["downstream"]),
        TrainConfig(**{**train, "method": method, "interp": interp,
                       "certain": 0 if train["certain"] == "sweep" else train["certain"]},
                    seed=derive_seed(config["seed"], "train")),
    )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, config: dict, artifacts: dict[str, Path]) -> Path:
    manifest = {
        "config": config,
        "seed": config["seed"],
        "artifacts": {name: _sha256(path) for name, path in sorted(artifacts.items())},
        "versions": {"package": __version__, "weight_format": FORMAT_VERSION},
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path


def _weight_path(out_dir: Path, parameter) -> Path:
    return out_dir / f"weights_{parameter.value}.glp"


def cmd_synth(specs: Specs) -> dict[str, Path]:
    out_dir = Path(specs.config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    patients = generate_pretext_cohort(specs.pretext)
    records = generate_downstream_cohort(specs.downstream)
    pretext_path = out_dir / "pretext.csv"
    episodic_path = out_dir / "episodic.csv"
    write_cohort_csv(patients, pretext_path)
    write_episodic_csv(records, episodic_path)
    logger.info("synthesized %d patients, %d episodic records", len(patients), len(records))
    return {"pretext.csv": pretext_path, "episodic.csv": episodic_path}


def cmd_pretrain(specs: Specs) -> dict[str, Path]:
    config, train_config = specs.config, specs.train
    out_dir = Path(config["out_dir"])
    pretext_path = out_dir / "pretext.csv"
    if not pretext_path.exists():
        raise MissingArtifactError(f"{pretext_path} not found; run synth first")
    loaded = read_cohort_csv(pretext_path)
    if loaded.rejected_rows or loaded.rejected_patients:
        logger.warning(
            "ingestion rejected %d rows, %d patients",
            len(loaded.rejected_rows), len(loaded.rejected_patients),
        )
    if not loaded.patients:
        raise SchemaError(f"{pretext_path}: no usable patients")

    jobs = config["jobs"]
    if config["train"]["certain"] == "sweep":
        report = sweep_certain(loaded.patients, train_config, jobs=jobs)
    else:
        report = cross_validate(loaded.patients, train_config, jobs=jobs)
    models = train_final_models(report, train_config, jobs=jobs)

    artifacts: dict[str, Path] = {}
    for parameter in PARAMETER_ORDER:
        path = _weight_path(out_dir, parameter)
        save_weights(models[parameter], path)
        artifacts[path.name] = path
    report_path = out_dir / "pretrain_report.json"
    grid_path = out_dir / "certain_grid.csv"
    write_json(report_path, pretrain_report_to_dict(report))
    write_certain_grid_csv(report, grid_path)
    artifacts["pretrain_report.json"] = report_path
    artifacts["certain_grid.csv"] = grid_path
    logger.info("pretraining done: mean R^2 %.3f (%.1fs)", report.mean_r2, report.wall_clock_seconds)
    return artifacts


def cmd_transfer(specs: Specs) -> dict[str, Path]:
    config = specs.config
    out_dir = Path(config["out_dir"])
    episodic_path = out_dir / "episodic.csv"
    if not episodic_path.exists():
        raise MissingArtifactError(f"{episodic_path} not found; run synth first")
    missing = [
        _weight_path(out_dir, p).name
        for p in PARAMETER_ORDER
        if not _weight_path(out_dir, p).exists()
    ]
    if missing:
        raise MissingArtifactError(f"weight files missing: {', '.join(missing)}; run pretrain first")

    loaded = read_episodic_csv(episodic_path)
    if loaded.rejected_rows:
        logger.warning("ingestion rejected %d episodic rows", len(loaded.rejected_rows))
    if not loaded.records:
        raise SchemaError(f"{episodic_path}: no usable records")
    models = {p: load_weights(_weight_path(out_dir, p)) for p in PARAMETER_ORDER}

    report, features = run_downstream_study(
        models,
        loaded.records,
        seed=derive_seed(config["seed"], "transfer"),
        repetitions=config["transfer"]["repetitions"],
        split_ratio=config["transfer"]["split_ratio"],
    )
    report_path = out_dir / "downstream_report.json"
    table_path = out_dir / "downstream_table.csv"
    dist_path = out_dir / "distribution.csv"
    write_json(report_path, downstream_report_to_dict(report))
    write_downstream_table_csv(report, table_path)
    write_distribution_csv(features, dist_path)
    logger.info(
        "downstream done: averaged accuracy raw=%.3f out=%.3f",
        report.averaged["raw"].accuracy, report.averaged["out"].accuracy,
    )
    return {
        "downstream_report.json": report_path,
        "downstream_table.csv": table_path,
        "distribution.csv": dist_path,
    }


def cmd_all(specs: Specs) -> dict[str, Path]:
    artifacts = cmd_synth(specs)
    artifacts.update(cmd_pretrain(specs))
    artifacts.update(cmd_transfer(specs))
    return artifacts


def cmd_verify(paths: list[str]) -> int:
    failures = 0
    for path in paths:
        if not os.path.exists(path):
            print(f"{path}: MISSING")
            failures += 1
            continue
        try:
            model = load_weights(path)
        except GlpError as exc:
            print(f"{path}: FAIL ({exc})")
            failures += 1
            continue
        print(
            f"{path}: OK parameter={model.parameter.value} certain={model.certain} "
            f"format=v{FORMAT_VERSION}"
        )
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glp",
        description="Two-stage lab-progress pretraining and frozen-model transfer study.",
        epilog=f"Defaults: {json.dumps(DEFAULT_CONFIG)}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("synth", "generate cohort CSVs"),
        ("pretrain", "train the six per-parameter models"),
        ("transfer", "run the downstream classification study"),
        ("all", "synth + pretrain + transfer"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file (defaults shown in --help)")
        cmd.add_argument("--seed", type=int, help="override the global seed")
        cmd.add_argument("--out", help="override the output directory")
        cmd.add_argument("--jobs", type=int, help="worker processes sharing the training stacks")
        cmd.add_argument(
            "--interp", choices=[m.value for m in InterpMethod], help="interpolation method"
        )
        cmd.add_argument(
            "--method", choices=[m.value for m in TrainMethod], help="training method"
        )
        cmd.add_argument(
            "--certain", type=_certain_value, help="certainty threshold 0..5 or 'sweep'"
        )
    verify = sub.add_parser("verify", help="check weight-file integrity")
    verify.add_argument("paths", nargs="+", help="weight files to verify")
    return parser


def _apply_flags(config: dict, args: argparse.Namespace) -> dict:
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out_dir"] = args.out
    if args.jobs is not None:
        config["jobs"] = args.jobs
    if args.interp is not None:
        config["train"]["interp"] = args.interp
    if args.method is not None:
        config["train"]["method"] = args.method
    if args.certain is not None:
        config["train"]["certain"] = args.certain
    return config


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("GLP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return 5 if cmd_verify(args.paths) else 0
        config = _apply_flags(load_config(args.config), args)
        specs = build_specs(config)  # every setting checked before any output exists
        handler = {"synth": cmd_synth, "pretrain": cmd_pretrain,
                   "transfer": cmd_transfer, "all": cmd_all}[args.command]
        artifacts = handler(specs)
        manifest = _write_manifest(Path(config["out_dir"]), config, artifacts)
        print(f"wrote {len(artifacts)} artifacts; manifest at {manifest}")
        return 0
    except GlpError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
