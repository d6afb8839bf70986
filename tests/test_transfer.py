import numpy as np
import pytest

from glp import netcore as nc
from glp.cohort import (
    DownstreamSpec,
    EpisodicRecord,
    Gender,
    LabParameter,
    PARAMETER_ORDER,
    generate_downstream_cohort,
)
from glp.errors import EvaluationError, TrainingError
from glp.transfer import (
    _balanced_indices,
    auroc,
    classification_metrics,
    cohens_kappa,
    extract_features_bulk,
    mean_pairwise_kappa,
    run_downstream_study,
    seed_frame,
)


def _models(seed=5):
    rng = np.random.default_rng(seed)
    return {
        p: nc.vector_to_model(rng.uniform(-0.4, 0.4, nc.n_parameters()), p, 0)
        for p in PARAMETER_ORDER
    }


def _record(gap=4, label=True, value=100.0):
    values = {p: value for p in PARAMETER_ORDER}
    return EpisodicRecord("D1", 65.0, Gender.MALE, values, gap, label)


def test_seed_frame_constant_carry():
    frame = seed_frame(_record(), LabParameter.GLUCOSE_AC)
    assert frame.shape == (12, 5)
    assert np.all(frame[:, 4] == np.log1p(100.0))
    assert np.all(frame[:11, 2] == 0.0) and frame[11, 2] == 1.0


def test_extract_features_shapes():
    (features,) = extract_features_bulk(_models(), [_record(gap=5)])
    assert features.emb.shape == (30,)
    assert features.out.shape == (6,)
    assert features.raw.shape == (6,)
    assert np.all(np.isfinite(features.emb))


def test_extract_features_gap_zero_is_single_pass():
    models = _models()
    record = _record(gap=0)
    (features,) = extract_features_bulk(models, [record])
    for i, parameter in enumerate(PARAMETER_ORDER):
        x0 = seed_frame(record, parameter)[None]
        out, _ = nc.libc_forward(models[parameter].libc, x0)
        pred, _ = nc.regressor_forward(models[parameter].regressor, out[:, -1, :])
        assert features.out[i] == pred[0]
        assert features.out_half[i] == pred[0]


def test_extract_features_zero_weights():
    zero = {p: nc.vector_to_model(np.zeros(nc.n_parameters()), p, 0) for p in PARAMETER_ORDER}
    (features,) = extract_features_bulk(zero, [_record(gap=7)])
    assert np.all(features.out == 0.0)


def test_bulk_matches_single():
    models = _models()
    records = generate_downstream_cohort(
        DownstreamSpec(n_positive=6, n_negative=10, seed=3, g_mean_positive=9, g_mean_negative=20)
    )
    bulk = extract_features_bulk(models, records)
    for record, features in zip(records, bulk):
        # one record at a time through the forward that `evaluate_r2` uses
        for i, parameter in enumerate(PARAMETER_ORDER):
            model = models[parameter]
            x0 = seed_frame(record, parameter)[None]
            at = tuple(np.full(1, k) for k in range(1, record.gap_months + 1))
            pred, latents, _, _ = nc.rollout_forward(model, x0, record.gap_months, at=at)
            half_index = max(1, -(-record.gap_months // 2)) - 1  # ceil(g/2), 1-based
            half, _ = nc.regressor_forward(model.regressor, latents[half_index])
            np.testing.assert_allclose(features.emb[5 * i : 5 * i + 5], latents[-1][0],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(features.out[i], pred[0], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(features.out_half[i], half[0], rtol=1e-12, atol=1e-12)


def _labels(spec):
    return np.array([r.label for r in generate_downstream_cohort(spec)], dtype=int)


def test_downsample_counts_and_determinism():
    labels = _labels(DownstreamSpec(n_positive=42, n_negative=441, seed=1))
    balanced = _balanced_indices(labels, seed=7)
    assert len(balanced) == 84
    assert labels[balanced].sum() == 42
    assert np.array_equal(balanced, _balanced_indices(labels, seed=7))


def test_downsample_balanced_input_unchanged():
    labels = _labels(DownstreamSpec(n_positive=8, n_negative=8, seed=2))
    assert np.array_equal(_balanced_indices(labels, seed=0), np.arange(16))


def test_downsample_requires_enough_negatives():
    labels = _labels(DownstreamSpec(n_positive=5, n_negative=3, seed=2))
    with pytest.raises(TrainingError):
        _balanced_indices(labels, seed=0)


def brute_force_auroc(labels, scores):
    positives = [s for s, l in zip(scores, labels) if l == 1]
    negatives = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in positives for n in negatives)
    return wins / (len(positives) * len(negatives))


def test_auroc_matches_brute_force_with_ties():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(5, 200))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
        assert auroc(labels, scores) == pytest.approx(brute_force_auroc(labels, scores), abs=1e-12)


def test_auroc_edge_cases():
    assert auroc([1, 1, 0, 0], [5.0, 4.0, 3.0, 2.0]) == 1.0
    assert auroc([0, 1, 0, 1], [1.0, 1.0, 1.0, 1.0]) == 0.5
    with pytest.raises(EvaluationError):
        auroc([1, 1], [0.3, 0.4])


def test_classification_metrics_hand_case():
    row = classification_metrics([1, 1, 0, 0], [1, 0, 0, 0], [0.9, 0.4, 0.3, 0.2])
    assert row.accuracy == 0.75
    assert row.sensitivity == 0.5
    assert row.specificity == 1.0
    assert row.precision == 1.0
    assert row.f1 == pytest.approx(2.0 / 3.0)


def test_classification_metrics_perfect():
    row = classification_metrics([1, 0, 1], [1, 0, 1], [0.9, 0.1, 0.8])
    assert (row.auroc, row.accuracy, row.sensitivity, row.specificity, row.precision, row.f1) == (
        1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
    )


def test_classification_metrics_one_class_labels():
    row = classification_metrics([1, 1, 1], [1, 0, 1], [0.9, 0.1, 0.8])
    assert row.auroc is None
    assert row.accuracy == pytest.approx(2.0 / 3.0)


def test_kappa_values():
    assert cohens_kappa([1, 1, 0, 0], [1, 1, 0, 0]) == 1.0
    assert cohens_kappa([1, 1, 0, 0], [0, 0, 1, 1]) == -1.0
    assert cohens_kappa([1, 1, 0, 0], [1, 0, 1, 0]) == 0.0


def test_kappa_symmetry():
    rng = np.random.default_rng(8)
    a = rng.integers(0, 2, 40)
    b = rng.integers(0, 2, 40)
    assert cohens_kappa(a, b) == pytest.approx(cohens_kappa(b, a), abs=1e-12)


def test_kappa_degenerate():
    # chance agreement 1 only happens when both raters are constant and
    # identical, where kappa is defined as 1
    assert cohens_kappa([1, 1, 1], [1, 1, 1]) == 1.0
    assert cohens_kappa([0, 0, 0], [0, 0, 0]) == 1.0
    # one constant rater is not degenerate
    assert cohens_kappa([1, 1, 1, 1], [1, 1, 1, 0]) == 0.0


def test_mean_pairwise_kappa_over_six_pairs():
    predictions = {
        "a": np.array([1, 1, 0, 0]),
        "b": np.array([1, 1, 0, 0]),
        "c": np.array([1, 0, 1, 0]),
        "d": np.array([0, 0, 1, 1]),
    }
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    expected = np.mean([cohens_kappa(predictions[x], predictions[y]) for x, y in pairs])
    assert mean_pairwise_kappa(predictions) == pytest.approx(expected, abs=1e-12)


def test_distribution_csv_contents(tmp_path):
    import csv

    from glp.encoding import denormalize
    from glp.transfer import write_distribution_csv

    models = _models()
    records = generate_downstream_cohort(DownstreamSpec(n_positive=3, n_negative=5, seed=9))
    features = extract_features_bulk(models, records)
    path = tmp_path / "distribution.csv"
    write_distribution_csv(features, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records) * len(PARAMETER_ORDER) * 3
    assert {row["stage"] for row in rows} == {"raw", "half", "full"}
    first = features[0]
    head = [row for row in rows if row["patient_id"] == first.patient_id
            and row["parameter"] == "CHOL_HDL"]
    by_stage = {row["stage"]: float(row["value"]) for row in head}
    assert by_stage["raw"] == pytest.approx(denormalize(first.raw[0]), rel=1e-12)
    assert by_stage["half"] == pytest.approx(denormalize(first.out_half[0]), rel=1e-12)
    assert by_stage["full"] == pytest.approx(denormalize(first.out[0]), rel=1e-12)
    assert head[0]["label"] == str(int(first.label))


@pytest.fixture(scope="module")
def study():
    models = _models(seed=2)
    records = generate_downstream_cohort(
        DownstreamSpec(n_positive=12, n_negative=40, seed=6, g_mean_positive=10, g_mean_negative=30)
    )
    report, features = run_downstream_study(models, records, seed=11, repetitions=3)
    return report, features, models


def test_study_report_shape(study):
    report, features, _ = study
    assert set(report.per_classifier) == {"raw", "emb", "out"}
    for rows in report.per_classifier.values():
        assert set(rows) == {"gbdt", "svm", "logreg", "knn"}
    assert report.n_balanced == 24
    assert len(report.significance) == 3 * 6
    assert len(features) == 52


def test_study_averaged_row_is_mean(study):
    report, _, _ = study
    for rep, averaged in report.averaged.items():
        rows = report.per_classifier[rep].values()
        for metric in ("auroc", "accuracy", "f1"):
            assert getattr(averaged, metric) == pytest.approx(
                np.mean([getattr(r, metric) for r in rows]), abs=1e-12
            )


def test_study_preserves_models(study):
    report, _, models = study
    for parameter, model in models.items():
        assert report.model_checksums[parameter.value] == nc.model_checksum(model)


def test_study_deterministic(study):
    report, _, models = study
    records = generate_downstream_cohort(
        DownstreamSpec(n_positive=12, n_negative=40, seed=6, g_mean_positive=10, g_mean_negative=30)
    )
    again, _ = run_downstream_study(models, records, seed=11, repetitions=3)
    assert again.averaged["out"].as_dict() == report.averaged["out"].as_dict()
    assert again.kappa == report.kappa
