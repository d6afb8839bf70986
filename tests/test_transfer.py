import numpy as np
import pytest

from glp import netcore as nc
from glp import transfer
from glp.classifiers import ClassifierKind
from glp.cohort import (
    DownstreamSpec,
    EpisodicRecord,
    Gender,
    LabParameter,
    PARAMETER_ORDER,
    generate_downstream_cohort,
)
from glp.errors import ConfigError, EvaluationError, TrainingError
from glp.stats import t_test
from glp.transfer import (
    METRIC_NAMES,
    REPRESENTATIONS,
    MetricsRow,
    _balanced_indices,
    _stratified_split,
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
    features = extract_features_bulk(_models(), [_record(gap=5), _record(gap=2, label=False)])
    assert len(features) == 2 and features.patient_ids == ["D1", "D1"]
    assert features.labels.tolist() == [1, 0]
    assert features.emb.shape == (2, 30)
    assert features.out.shape == features.out_half.shape == features.raw.shape == (2, 6)
    assert np.all(np.isfinite(features.emb))


def test_extract_features_gap_zero_is_single_pass():
    models = _models()
    record = _record(gap=0)
    features = extract_features_bulk(models, [record])
    for i, parameter in enumerate(PARAMETER_ORDER):
        x0 = seed_frame(record, parameter)[None]
        out, _ = nc.libc_forward(models[parameter].libc, x0)
        pred, _ = nc.regressor_forward(models[parameter].regressor, out[:, -1, :])
        assert features.out[0, i] == pred[0]
        assert features.out_half[0, i] == pred[0]


def test_extract_features_zero_weights():
    zero = {p: nc.vector_to_model(np.zeros(nc.n_parameters()), p, 0) for p in PARAMETER_ORDER}
    features = extract_features_bulk(zero, [_record(gap=7)])
    assert np.all(features.out == 0.0)


def test_bulk_matches_single():
    models = _models()
    records = generate_downstream_cohort(
        DownstreamSpec(n_positive=6, n_negative=10, seed=3, g_mean_positive=9, g_mean_negative=20)
    )
    bulk = extract_features_bulk(models, records)
    for j, record in enumerate(records):
        # one record at a time through the forward that `evaluate_r2` uses
        for i, parameter in enumerate(PARAMETER_ORDER):
            model = models[parameter]
            x0 = seed_frame(record, parameter)[None]
            at = tuple(np.full(1, k) for k in range(1, record.gap_months + 1))
            pred, latents, _, _ = nc.rollout_forward(model, x0, record.gap_months, at=at)
            half_index = max(1, -(-record.gap_months // 2)) - 1  # ceil(g/2), 1-based
            half, _ = nc.regressor_forward(model.regressor, latents[half_index])
            np.testing.assert_allclose(bulk.emb[j, 5 * i : 5 * i + 5], latents[-1][0],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bulk.out[j, i], pred[0], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(bulk.out_half[j, i], half[0], rtol=1e-12, atol=1e-12)


def _full_batch_features(models, records):
    """(out, out_half, emb) with every record rolled out to the largest gap in
    one batch of all records, each snapshot taken at its own application."""
    gaps = np.array([max(r.gap_months, 1) for r in records])
    half_apps = np.maximum(1, -(-gaps // 2))
    out, half, emb = [], [], []
    for parameter in PARAMETER_ORDER:
        model = models[parameter]
        x0 = np.stack([seed_frame(record, parameter) for record in records])
        seq, latent, half_latent = x0, np.empty((len(records), 5)), np.empty((len(records), 5))
        for k in range(1, gaps.max() + 1):
            y, _ = nc.libc_forward(model.libc, seq)
            latent[gaps == k] = y[gaps == k, -1]
            half_latent[half_apps == k] = y[half_apps == k, -1]
            seq = nc.next_input(y, x0, parameter)
        out.append(nc.regressor_forward(model.regressor, latent)[0])
        half.append(nc.regressor_forward(model.regressor, half_latent)[0])
        emb.append(latent)
    return np.stack(out, axis=1), np.stack(half, axis=1), np.concatenate(emb, axis=1)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_bulk_rollout_drops_finished_rows_bit_for_bit(seed, monkeypatch):
    """Records leave the rollout after their own gap, the last one or two
    rows run alone at the end, and every feature equals the full-batch
    rollout's bit for bit."""
    import dataclasses

    records = generate_downstream_cohort(
        DownstreamSpec(n_positive=8, n_negative=24, seed=seed, g_mean_positive=5, g_mean_negative=14))
    gaps = [max(r.gap_months, 1) for r in records]
    # exactly one record has the largest gap: the rollout ends on a 2-row floor
    longest = int(np.argmax(gaps))
    records[longest] = dataclasses.replace(records[longest], gap_months=max(gaps) + 3)
    gaps[longest] += 3
    models = _models(seed)
    rows, forward = [], nc.libc_forward

    def counted(p, x, *args, **kwargs):
        rows.append(x.shape[-3])
        return forward(p, x, *args, **kwargs)

    monkeypatch.setattr(nc, "libc_forward", counted)
    features = extract_features_bulk(models, records)
    monkeypatch.undo()
    live = [max(sum(g >= k for g in gaps), 2) for k in range(1, max(gaps) + 1)]
    assert rows == live * len(PARAMETER_ORDER) and live[-3:] == [2, 2, 2]
    out, half, emb = _full_batch_features(models, records)
    assert np.array_equal(features.out, out)
    assert np.array_equal(features.out_half, half)
    assert np.array_equal(features.emb, emb)


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


def test_stratified_split_returns_int_indices_or_rejects_an_empty_class():
    labels = np.array([1] * 8 + [0] * 8)
    train, test = _stratified_split(labels, 0.8, np.random.default_rng(0))
    assert train.dtype.kind == test.dtype.kind == "i"
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(16))
    assert labels[train].sum() == 6 and labels[test].sum() == 2
    for ratio in (0.05, 0.97):  # 8 rows a class: 0 train rows, then 0 test rows
        with pytest.raises(ConfigError, match="without training or test rows"):
            _stratified_split(labels, ratio, np.random.default_rng(0))


def test_study_rejects_no_repetitions():
    with pytest.raises(ConfigError, match="repetitions"):
        run_downstream_study(_models(), [_record()], seed=0, repetitions=0)


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
    import dataclasses

    from glp.encoding import denormalize
    from glp.transfer import write_distribution_csv

    models = _models()
    records = generate_downstream_cohort(DownstreamSpec(n_positive=3, n_negative=5, seed=9))
    records[1] = dataclasses.replace(records[1], patient_id="A\rB")  # a reader's line end
    features = extract_features_bulk(models, records)
    path = tmp_path / "distribution.csv"
    write_distribution_csv(features, path)
    with open(path, newline="") as fh:
        header, *lines = list(csv.reader(fh))
    per_record = len(PARAMETER_ORDER) * 3
    assert len(lines) == len(records) * per_record
    rows = [dict(zip(header, line)) for line in lines]
    assert [row["patient_id"] for row in rows[::per_record]] == [r.patient_id for r in records]
    assert {row["stage"] for row in rows} == {"raw", "half", "full"}
    head = [row for row in rows if row["patient_id"] == features.patient_ids[0]
            and row["parameter"] == "CHOL_HDL"]
    by_stage = {row["stage"]: float(row["value"]) for row in head}
    assert by_stage["raw"] == pytest.approx(denormalize(features.raw[0, 0]), rel=1e-12)
    assert by_stage["half"] == pytest.approx(denormalize(features.out_half[0, 0]), rel=1e-12)
    assert by_stage["full"] == pytest.approx(denormalize(features.out[0, 0]), rel=1e-12)
    assert head[0]["label"] == str(features.labels[0])


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
    assert again.averaged["out"] == report.averaged["out"]
    assert again.kappa == report.kappa


def test_study_matches_a_list_based_reference(monkeypatch):
    """Table 3 rebuilt from every metrics row and kappa the study computes, in
    call order, with Python lists and `np.mean`: equal bit for bit. Nine
    repetitions, since from eight terms on numpy's pairwise summation and
    plain summation differ."""
    rows, kappas = [], []

    def recording(fn, results):
        def recorded(*args):
            results.append(fn(*args))
            return results[-1]
        return recorded

    monkeypatch.setattr(transfer, "classification_metrics", recording(classification_metrics, rows))
    monkeypatch.setattr(transfer, "mean_pairwise_kappa", recording(mean_pairwise_kappa, kappas))
    records = generate_downstream_cohort(
        DownstreamSpec(n_positive=12, n_negative=40, seed=6, g_mean_positive=10, g_mean_negative=30)
    )
    report, _ = run_downstream_study(_models(seed=2), records, seed=11, repetitions=9)

    kinds = [kind.value for kind in ClassifierKind]
    samples: dict[tuple[str, str, str], list[float]] = {}
    kappa_samples: dict[str, list[float]] = {rep: [] for rep in REPRESENTATIONS}
    rep_means: dict[tuple[str, str], list[float]] = {}
    calls, kappa_calls = iter(rows), iter(kappas)
    for _ in range(9):
        for rep in REPRESENTATIONS:
            per_kind = [next(calls) for _ in kinds]
            for kind, row in zip(kinds, per_kind):
                for metric in METRIC_NAMES:
                    samples.setdefault((rep, kind, metric), []).append(getattr(row, metric))
            kappa_samples[rep].append(next(kappa_calls))
            for metric in METRIC_NAMES:
                rep_means.setdefault((rep, metric), []).append(
                    float(np.mean([getattr(row, metric) for row in per_kind])))
    assert next(calls, None) is None and next(kappa_calls, None) is None

    for rep in REPRESENTATIONS:
        per_classifier = {kind: MetricsRow(*[float(np.mean(samples[(rep, kind, m)]))
                                             for m in METRIC_NAMES]) for kind in kinds}
        assert report.per_classifier[rep] == per_classifier
        assert report.averaged[rep] == MetricsRow(*[
            float(np.mean([getattr(row, m) for row in per_classifier.values()]))
            for m in METRIC_NAMES])
        assert report.kappa[rep] == float(np.mean(kappa_samples[rep]))
    significance = []
    for rep_a, rep_b in [("raw", "emb"), ("raw", "out"), ("emb", "out")]:
        for metric in METRIC_NAMES:
            result = t_test(rep_means[(rep_a, metric)], rep_means[(rep_b, metric)])
            significance.append({"metric": metric, "a": rep_a, "b": rep_b, "t": result.t,
                                 "df": result.df, "p": result.p, "variant": "pooled"})
    assert report.significance == significance
