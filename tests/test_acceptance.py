"""Acceptance gate: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they complete. The qualitative criteria train real models and take a few
minutes; everything is deterministic.
"""

import dataclasses
import json
import sys
import time

import numpy as np
import pytest

from glp import netcore as nc
from glp.cli import main as cli_main
from glp.cohort import (
    DownstreamSpec,
    GeneratorSpec,
    LabParameter,
    PARAMETER_ORDER,
    generate_downstream_cohort,
    generate_pretext_cohort,
)
from glp.interp import barycentric_at, barycentric_fill, linear_at, pchip_fill
from glp.pipeline import (
    Fit,
    TrainConfig,
    TrainMethod,
    assemble_frames,
    build_frame_cache,
    cross_validate,
    split_cohort,
    train_by_method,
)
from glp.seeding import derive_seed
from glp.stats import pearson, r_squared, t_test
from glp.transfer import auroc, cohens_kappa, run_downstream_study
from helpers import (
    KINK_GUARD,
    fd_gradient,
    make_glucose_batch,
    min_kink_distance,
    relative_errors,
)
from test_framing import _random_interpolated_series, brute_force_stage1
from test_transfer import brute_force_auroc

ACCEPT_COHORT_SEED = 2024
TRAIN_SEEDS = range(5)
TABLE2_PARAMETERS = (LabParameter.GLUCOSE_AC, LabParameter.WBC)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    sys.__stdout__.write(f"\n{line}\n")  # bypass capture: always show the verdict
    sys.__stdout__.flush()
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def pretext_cohort():
    return generate_pretext_cohort(GeneratorSpec(seed=ACCEPT_COHORT_SEED))


@pytest.fixture(scope="module")
def frozen_models(pretext_cohort):
    config = TrainConfig(certain=3)
    fits = []
    started = time.perf_counter()
    for parameter in PARAMETER_ORDER:
        seed = derive_seed(7, parameter.value, "final")
        train, _ = split_cohort(pretext_cohort, config.split_ratio, seed)
        cache = build_frame_cache(train, parameter, config.interp)
        fits.append(Fit(parameter, config.certain, seed, *assemble_frames(cache, train, config.certain)))
    trained = train_by_method(fits, config)
    models = {fit.parameter: final for fit, (_, final) in zip(fits, trained)}
    sys.__stdout__.write(
        f"\n[acceptance] (six transfer models pretrained in {time.perf_counter()-started:.0f}s)\n"
    )
    return models


def test_gradient_oracle():
    """Analytic gradients of both graphs vs central finite differences,
    100 random seeds, max relative error < 1e-4, runtime < 60 s."""
    started = time.perf_counter()
    eps = 1e-5
    worst = 0.0
    checked = 0
    for seed in range(100):
        attempt = seed
        for _ in range(20):
            rng = np.random.default_rng(attempt)
            vec = rng.uniform(-0.5, 0.5, nc.n_parameters())
            x, targets = make_glucose_batch(2, rng)
            model = nc.vector_to_model(vec, LabParameter.GLUCOSE_AC, 0)
            if min(
                min_kink_distance(model, x, 0), min_kink_distance(model, x, 6)
            ) > KINK_GUARD:
                break
            attempt += 10_000  # finite differences are meaningless across a kink
        for gap in (0, 6):
            loss, analytic = nc.rollout_loss_and_grads(model, x, targets, gap)
            fd, probes, losses = fd_gradient(vec, model.parameter, x, targets, gap, eps)
            # the stacked forward must agree with single-model forward calls
            for j in rng.integers(0, len(probes), 2):
                pred, _, _, _ = nc.rollout_forward(
                    nc.vector_to_model(probes[j], model.parameter, 0), x, gap
                )
                reference = float(np.mean((pred - targets) ** 2))
                assert abs(reference - losses[j]) <= 1e-12 * max(1.0, abs(reference))
            worst = max(worst, float(relative_errors(analytic, fd, loss).max()))
            checked += 1
    elapsed = time.perf_counter() - started
    _verdict(
        "gradient-oracle",
        worst < 1e-4 and elapsed < 60.0 and checked == 200,
        f"(max rel err {worst:.2e} over 100 seeds x 2 graphs, {elapsed:.0f}s)",
    )


def test_interpolation_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(1)

    # linear reproduces affine data exactly (dyadic-exact case), ~1e-12 otherwise
    ok = True
    for t in range(1, 8):
        ok &= linear_at(0, 3.0, 8, 3.0 + 0.5 * 8, t) == 3.0 + 0.5 * t
    for _ in range(200):
        a, b = rng.uniform(-3, 3, 2)
        t_i, t_k = sorted(rng.choice(40, 2, replace=False).tolist())
        t_j = rng.uniform(t_i, t_k)
        expected = a * t_j + b
        got = linear_at(t_i, a * t_i + b, t_k, a * t_k + b, t_j)
        ok &= abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    # pchip reproduces linear data to < 1e-12 and never overshoots monotone knots
    for _ in range(100):
        n = int(rng.integers(3, 9))
        xs = np.cumsum(rng.integers(1, 6, n))
        slope, intercept = rng.uniform(-2, 2, 2)
        points = [(int(x), slope * x + intercept) for x in xs]
        filled = pchip_fill(points)
        for month, value in filled.items():
            ok &= abs(value - (slope * month + intercept)) < 1e-12 * max(1.0, abs(value))
        ys = np.cumsum(rng.uniform(0, 4, n)) + 1.0
        filled = pchip_fill(list(zip(xs.tolist(), ys.tolist())))
        for (x0, y0), (x1, y1) in zip(zip(xs, ys), list(zip(xs, ys))[1:]):
            for month in range(int(x0), int(x1) + 1):
                ok &= y0 - 1e-10 <= filled[month] <= y1 + 1e-10

    # barycentric reproduces degree-(n-1) polynomials to < 1e-8 relative and
    # coincides with the linear rule on two nodes
    for n_nodes in (3, 5, 8, 10):
        xs = np.sort(rng.choice(np.arange(0, 4 * n_nodes), n_nodes, replace=False))
        coeffs = rng.uniform(-1, 1, n_nodes)
        poly = lambda x: float(np.polyval(coeffs, (x - float(xs.mean())) / 10.0))
        filled = barycentric_fill([(float(x), poly(x)) for x in xs])
        for month, value in filled.items():
            expected = poly(month)
            ok &= abs(value - expected) <= 1e-8 * max(1e-2, abs(expected))
    for _ in range(50):
        x0, x1 = sorted(rng.choice(50, 2, replace=False).tolist())
        y0, y1 = rng.uniform(-5, 5, 2)
        x = rng.uniform(x0, x1)
        ok &= abs(
            barycentric_at([(x0, y0), (x1, y1)], x) - linear_at(x0, y0, x1, y1, x)
        ) < 1e-10
    elapsed = time.perf_counter() - started
    _verdict("interpolation-oracles", ok and elapsed < 5.0, f"({elapsed:.1f}s)")


def test_framing_oracle():
    """Brute-force window enumerator agrees exactly on 1000 random series for
    every certainty threshold."""
    started = time.perf_counter()
    from glp.cohort import Gender
    from glp.framing import build_stage1_frames

    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(1000):
        series = _random_interpolated_series(rng)
        for certain in range(6):
            frames = build_stage1_frames(series, 50.0, Gender.FEMALE, certain)
            got = [(f.window_start, f.target, f.real_count) for f in frames]
            if got != brute_force_stage1(series, certain):
                mismatches += 1
    elapsed = time.perf_counter() - started
    _verdict(
        "framing-oracle",
        mismatches == 0,
        f"(1000 series x 6 thresholds, {mismatches} mismatches, {elapsed:.0f}s)",
    )


def test_metric_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(5)

    # rank AUROC equals brute-force pairwise comparison exactly on sets <= 200
    ok = True
    for _ in range(60):
        n = int(rng.integers(4, 201))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        scores = np.round(rng.normal(size=n), 1)
        ok &= auroc(labels, scores) == brute_force_auroc(labels, scores)

    # hand-computed fixtures to 1e-9
    ok &= abs(cohens_kappa([1, 1, 0, 0], [0, 0, 1, 1]) - (-1.0)) < 1e-9
    ok &= abs(cohens_kappa([1, 1, 0, 0], [1, 0, 1, 0]) - 0.0) < 1e-9
    ok &= abs(r_squared([2.0, 1.0, 0.0], [0.0, 1.0, 2.0]) - (-3.0)) < 1e-9
    ok &= abs(pearson([1, 2, 3, 4], [2, 1, 4, 3]) - 0.6) < 1e-9
    result = t_test([1, 2, 3], [2, 3, 4])
    ok &= abs(result.t - (-1.224744871391589)) < 1e-9
    ok &= abs(result.df - 4.0) < 1e-9
    ok &= abs(result.p - 0.2878641347266908) < 1e-9
    elapsed = time.perf_counter() - started
    _verdict("metric-oracles", ok, f"({elapsed:.1f}s)")


def test_qualitative_table2(pretext_cohort):
    """Median-over-seeds mean R^2: two-stage >= ssl-only - 0.02 and both
    exceed supervised-only scored on the rollout targets. Runtime < 10 min."""
    started = time.perf_counter()
    two_means, ssl_means, sup_means = [], [], []
    for seed in TRAIN_SEEDS:
        config = TrainConfig(
            method=TrainMethod.TWO_STAGE, seed=seed, parameters=TABLE2_PARAMETERS
        )
        two = cross_validate(pretext_cohort, config)
        ssl = cross_validate(
            pretext_cohort, dataclasses.replace(config, method=TrainMethod.SSL_ONLY)
        )
        # the two-stage intermediate IS the supervised-only model (same seed
        # derivation), already scored on the rollout targets per fold
        sup = float(
            np.mean([np.mean(r.stage1_per_fold_r2) for r in two.parameters.values()])
        )
        two_means.append(two.mean_r2)
        ssl_means.append(ssl.mean_r2)
        sup_means.append(sup)
    two_med = float(np.median(two_means))
    ssl_med = float(np.median(ssl_means))
    sup_med = float(np.median(sup_means))
    elapsed = time.perf_counter() - started
    ok = (two_med >= ssl_med - 0.02) and (two_med > sup_med) and (ssl_med > sup_med)
    _verdict(
        "qualitative-table2",
        ok and elapsed < 600.0,
        f"(median mean-R2: two-stage {two_med:+.3f}, ssl {ssl_med:+.3f}, "
        f"supervised {sup_med:+.3f}; {elapsed:.0f}s)",
    )


def test_qualitative_table3_and_frozen_models(frozen_models):
    """Progress_out beats raw by >= 0.05 averaged accuracy and AUROC, with
    higher inter-classifier agreement; model fingerprints never change."""
    records = generate_downstream_cohort(
        DownstreamSpec(n_positive=42, n_negative=441, seed=ACCEPT_COHORT_SEED)
    )
    checksums_before = {p.value: nc.model_checksum(m) for p, m in frozen_models.items()}
    started = time.perf_counter()
    report, _ = run_downstream_study(frozen_models, records, seed=42, repetitions=5)
    elapsed = time.perf_counter() - started
    checksums_after = {p.value: nc.model_checksum(m) for p, m in frozen_models.items()}

    raw = report.averaged["raw"]
    out = report.averaged["out"]
    delta_acc = out.accuracy - raw.accuracy
    delta_auroc = out.auroc - raw.auroc
    delta_kappa = report.kappa["out"] - report.kappa["raw"]
    ok = delta_acc >= 0.05 and delta_auroc >= 0.05 and delta_kappa > 0.0
    _verdict(
        "qualitative-table3",
        ok and elapsed < 180.0,
        f"(acc {raw.accuracy:.3f}->{out.accuracy:.3f} (+{delta_acc:.3f}), "
        f"auroc {raw.auroc:.3f}->{out.auroc:.3f} (+{delta_auroc:.3f}), "
        f"kappa {report.kappa['raw']:.3f}->{report.kappa['out']:.3f}; study {elapsed:.0f}s)",
    )
    _verdict(
        "frozen-transfer-invariant",
        checksums_before == checksums_after == report.model_checksums,
        "(model fingerprints unchanged through the study)",
    )


def test_full_run_determinism(tmp_path):
    """Two cmd_all runs with identical config+seed produce bitwise-identical
    weight files and reports."""
    config = {
        "seed": 17,
        "pretext": {"n_patients": 20, "months_span": 24},
        "downstream": {"n_positive": 8, "n_negative": 24},
        "train": {"epochs": 8, "folds": 2, "certain": 1},
        "transfer": {"repetitions": 2},
    }
    outputs = []
    for run in ("a", "b"):
        run_config = dict(config, out_dir=str(tmp_path / run))
        path = tmp_path / f"config_{run}.json"
        path.write_text(json.dumps(run_config))
        assert cli_main(["all", "--config", str(path)]) == 0
        outputs.append(tmp_path / run)

    names = [f"weights_{p.value}.glp" for p in PARAMETER_ORDER] + [
        "pretext.csv", "episodic.csv", "pretrain_report.json", "certain_grid.csv",
        "downstream_report.json", "downstream_table.csv", "distribution.csv",
    ]
    different = [
        name for name in names
        if (outputs[0] / name).read_bytes() != (outputs[1] / name).read_bytes()
    ]
    manifests = [
        json.loads((out / "manifest.json").read_text())["artifacts"] for out in outputs
    ]
    _verdict(
        "determinism",
        not different and manifests[0] == manifests[1],
        f"({len(names)} artifacts byte-compared{'; differs: ' + ','.join(different) if different else ''})",
    )
