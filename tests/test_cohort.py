import math

import numpy as np
import pytest

from glp.cohort import (
    DownstreamSpec,
    GeneratorSpec,
    LabParameter,
    MAX_MONTHS,
    PARAMETER_ORDER,
    generate_downstream_cohort,
    generate_pretext_cohort,
    read_cohort_csv,
    read_episodic_csv,
    write_cohort_csv,
    write_episodic_csv,
)
from glp.errors import ConfigError, SchemaError


def test_single_patient_visit_density():
    spec = GeneratorSpec(n_patients=1, months_span=24, visit_period_mean=3, dropout_prob=0.0, seed=7)
    (patient,) = generate_pretext_cohort(spec)
    for series in patient.series.values():
        months = series.real_months()
        assert months[0] == 0
        assert months[-1] <= 24
        # mean inter-visit gap 3 over 24 months: about 9 visits
        assert 4 <= len(months) <= 16


def test_expected_visit_count_by_simulation():
    # direct simulation oracle: average count over seeds approaches span/period + 1
    counts = []
    for seed in range(40):
        spec = GeneratorSpec(n_patients=1, months_span=24, visit_period_mean=3, dropout_prob=0.0, seed=seed)
        (patient,) = generate_pretext_cohort(spec)
        counts.append(len(patient.series[LabParameter.WBC].real_months()))
    assert abs(np.mean(counts) - 9.0) < 1.5


def test_zero_patients_rejected():
    with pytest.raises(ConfigError):
        generate_pretext_cohort(GeneratorSpec(n_patients=0))
    with pytest.raises(ConfigError):
        generate_pretext_cohort(GeneratorSpec(n_patients=5, visit_period_mean=0.5))


def test_generator_determinism_byte_identical(tmp_path):
    spec = GeneratorSpec(n_patients=6, months_span=30, dropout_prob=0.2, seed=11)
    a = generate_pretext_cohort(spec)
    b = generate_pretext_cohort(spec)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_cohort_csv(a, pa)
    write_cohort_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_cohort_invariants():
    patients = generate_pretext_cohort(GeneratorSpec(n_patients=25, dropout_prob=0.3, seed=3))
    for patient in patients:
        assert 18.0 <= patient.age_at_start <= 110.0
        assert set(patient.series) == set(PARAMETER_ORDER)
        for series in patient.series.values():
            months = [o.month for o in series.observations]
            assert all(b > a for a, b in zip(months, months[1:]))
            assert sum(o.is_real for o in series.observations) >= 2
            assert all(o.value > 0 and math.isfinite(o.value) for o in series.observations)


def test_dropout_keeps_endpoints():
    spec = GeneratorSpec(n_patients=8, months_span=36, dropout_prob=0.6, seed=5)
    full = GeneratorSpec(n_patients=8, months_span=36, dropout_prob=0.0, seed=5)
    dropped = generate_pretext_cohort(spec)
    kept = generate_pretext_cohort(full)
    for pd, pk in zip(dropped, kept):
        for parameter in PARAMETER_ORDER:
            md = pd.series[parameter].real_months()
            mk = pk.series[parameter].real_months()
            assert set(md) <= set(mk)
            assert md[0] == mk[0] and md[-1] == mk[-1]


def test_downstream_counts_and_determinism():
    spec = DownstreamSpec(n_positive=42, n_negative=441, seed=9)
    records = generate_downstream_cohort(spec)
    assert len(records) == 483
    assert sum(r.label for r in records) == 42
    again = generate_downstream_cohort(spec)
    assert records == again
    with pytest.raises(ConfigError):
        generate_downstream_cohort(DownstreamSpec(n_positive=0, n_negative=10))


def test_downstream_zero_separation_indistinguishable():
    spec = DownstreamSpec(
        n_positive=400, n_negative=400, separation=0.0, seed=2,
        g_mean_positive=40.0, g_mean_negative=40.0,
    )
    records = generate_downstream_cohort(spec)
    pos = [r for r in records if r.label]
    neg = [r for r in records if not r.label]
    for parameter in PARAMETER_ORDER:
        vp = np.array([r.values[parameter] for r in pos])
        vn = np.array([r.values[parameter] for r in neg])
        assert abs(vp.mean() - vn.mean()) < 0.2 * vp.std()
        assert 0.8 < vp.std() / vn.std() < 1.25
    gp = np.array([r.gap_months for r in pos], dtype=float)
    gn = np.array([r.gap_months for r in neg], dtype=float)
    assert abs(gp.mean() - gn.mean()) < 1.5


def test_cohort_csv_round_trip(tmp_path):
    patients = generate_pretext_cohort(GeneratorSpec(n_patients=7, dropout_prob=0.25, seed=13))
    path = tmp_path / "cohort.csv"
    write_cohort_csv(patients, path)
    result = read_cohort_csv(path)
    assert result.rejected_rows == []
    assert result.rejected_patients == []
    assert result.patients == patients


def test_episodic_csv_round_trip(tmp_path):
    records = generate_downstream_cohort(DownstreamSpec(n_positive=10, n_negative=30, seed=4))
    path = tmp_path / "episodic.csv"
    write_episodic_csv(records, path)
    result = read_episodic_csv(path)
    assert result.rejected_rows == []
    assert result.records == records


def test_cohort_csv_rejections(tmp_path):
    patients = generate_pretext_cohort(GeneratorSpec(n_patients=2, seed=1))
    path = tmp_path / "cohort.csv"
    write_cohort_csv(patients, path)
    lines = path.read_text().splitlines()
    good = lines[1].split(",")
    lines.append(",".join(good[:5]) + ",NA")           # erroneous value
    lines.append(",".join(good[:5]) + ",.")            # erroneous value
    lines.append(lines[1])                             # repeated month
    bad_param = good.copy()
    bad_param[3] = "TSH"
    lines.append(",".join(bad_param))                  # unknown parameter
    bad_age = good.copy()
    bad_age[0], bad_age[1] = "P9999X", "140"
    lines.append(",".join(bad_age))                    # age out of range
    lines.append(",".join(good[:4] + [str(MAX_MONTHS + 1)] + good[5:]))  # month past MAX_MONTHS
    path.write_text("\n".join(lines) + "\n")

    result = read_cohort_csv(path)
    assert len(result.rejected_rows) == 6
    reasons = " | ".join(r.reason for r in result.rejected_rows)
    assert "'NA'" in reasons and "not increasing" in reasons
    # the two intact patients still parse
    assert result.patients == patients

    # bytes that are not UTF-8 fail the whole file as a schema error
    path.write_bytes(path.read_bytes() + b"P0000," + bytes([0xFF]) + b"\n")
    with pytest.raises(SchemaError, match="unreadable"):
        read_cohort_csv(path)


def test_cohort_csv_rejects_patient_missing_series(tmp_path):
    patients = generate_pretext_cohort(GeneratorSpec(n_patients=1, seed=1))
    path = tmp_path / "cohort.csv"
    write_cohort_csv(patients, path)
    lines = [l for l in path.read_text().splitlines() if ",UA," not in l]
    path.write_text("\n".join(lines) + "\n")
    result = read_cohort_csv(path)
    assert result.patients == []
    assert len(result.rejected_patients) == 1
    assert "UA" in result.rejected_patients[0][1]


def test_episodic_csv_rejections(tmp_path):
    records = generate_downstream_cohort(DownstreamSpec(n_positive=2, n_negative=2, seed=8))
    path = tmp_path / "episodic.csv"
    write_episodic_csv(records, path)
    lines = path.read_text().splitlines()
    row = lines[1].split(",")
    row[3] = "NA"
    lines.append(",".join(row))        # missing lab value
    row2 = lines[1].split(",")
    row2[10] = "2"
    lines.append(",".join(row2))       # bad label
    row3 = lines[1].split(",")
    row3[9] = str(MAX_MONTHS + 1)
    lines.append(",".join(row3))       # gap past MAX_MONTHS
    path.write_text("\n".join(lines) + "\n")
    result = read_episodic_csv(path)
    assert len(result.rejected_rows) == 3
    assert result.records == records

    # a field past the csv module's size limit fails the file as a schema error
    path.write_text("\n".join(lines + ["x" * 200_000]) + "\n")
    with pytest.raises(SchemaError, match="unreadable"):
        read_episodic_csv(path)
