"""Property tests of the cohort CSV readers: generated cohorts survive a write
and a read exactly, and arbitrary rows under a valid header only ever give
row or patient rejections. Skipped where hypothesis is not installed."""

import csv
import io
import tempfile
from pathlib import Path

import pytest

from glp.cohort import (
    MAX_MONTHS,
    PARAMETER_ORDER,
    EpisodicRecord,
    Gender,
    LabSeries,
    Observation,
    Patient,
    read_cohort_csv,
    read_episodic_csv,
    write_cohort_csv,
    write_episodic_csv,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)
PRETEXT_HEADER = ["patient_id", "age_at_start", "gender", "parameter", "month", "value"]
EPISODIC_HEADER = ["patient_id", "age", "gender", "chol_hdl", "ldl", "ldl_hdl", "glucose_ac",
                   "wbc", "ua", "gap_months", "label"]

ages = st.floats(min_value=18.0, max_value=110.0)
genders = st.sampled_from(Gender)
values = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def series_observations(draw):
    months = draw(st.lists(st.integers(0, MAX_MONTHS), min_size=2, max_size=6, unique=True))
    return [Observation(month, draw(values)) for month in sorted(months)]


@st.composite
def patients(draw, patient_id):
    series = {p: LabSeries(patient_id, p, draw(series_observations())) for p in PARAMETER_ORDER}
    return Patient(patient_id, draw(ages), draw(genders), series)


@st.composite
def cohorts(draw):
    ids = draw(st.lists(st.text(), max_size=4, unique=True))
    return [draw(patients(patient_id)) for patient_id in ids]


records = st.builds(
    EpisodicRecord, st.text(), ages, genders,
    st.fixed_dictionaries({p: values for p in PARAMETER_ORDER}),
    st.integers(1, MAX_MONTHS), st.booleans(),
)

# any text, and tokens that pass some of the readers' field checks, so that
# rows reach the later checks as well as the first
fields = st.one_of(
    st.text(),
    st.sampled_from(["M", "F", "0", "1", "NA", ".", "", "nan", "inf", "-1", "1e400"]
                    + [p.value for p in PARAMETER_ORDER]),
    st.floats().map(repr),
    st.integers(-10, 2 * MAX_MONTHS).map(str),
)
rows = st.lists(st.lists(fields, max_size=12), max_size=12)


def _read(reader, text: str):
    """`reader` on a file holding exactly `text`."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "cohort.csv"
        path.write_bytes(text.encode("utf-8"))
        return reader(path)


def _csv_text(header, body_rows) -> str:
    """The rows as CSV text, one record each: "\r\n" line ends make the
    writer quote every field that holds a line-end character."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(body_rows)
    return out.getvalue()


@SETTINGS
@given(cohorts())
def test_cohort_csv_round_trip(cohort):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "pretext.csv"
        write_cohort_csv(cohort, path)
        result = read_cohort_csv(path)
    assert result.rejected_rows == [] and result.rejected_patients == []
    assert result.patients == cohort


@SETTINGS
@given(st.lists(records, max_size=6))
def test_episodic_csv_round_trip(episodic):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "episodic.csv"
        write_episodic_csv(episodic, path)
        result = read_episodic_csv(path)
    assert result.rejected_rows == []
    assert result.records == episodic


@SETTINGS
@given(rows)
def test_arbitrary_pretext_rows_are_only_rejected(body):
    result = _read(read_cohort_csv, _csv_text(PRETEXT_HEADER, body))
    assert {r.line for r in result.rejected_rows} <= set(range(2, len(body) + 2))
    for patient in result.patients:
        assert set(patient.series) == set(PARAMETER_ORDER)
        for series in patient.series.values():
            series.validate()


@SETTINGS
@given(rows)
def test_arbitrary_episodic_rows_are_only_rejected(body):
    result = _read(read_episodic_csv, _csv_text(EPISODIC_HEADER, body))
    assert len(result.records) + len(result.rejected_rows) == len(body)
    for record in result.records:
        assert 18.0 <= record.age <= 110.0 and 1 <= record.gap_months <= MAX_MONTHS


@SETTINGS
@given(st.text())
def test_arbitrary_text_under_a_header_is_only_rejected(body):
    """Raw text, unbalanced quotes and bare line ends included, after the
    header line: both readers return their rejections and raise nothing."""
    for reader, header in ((read_cohort_csv, PRETEXT_HEADER), (read_episodic_csv, EPISODIC_HEADER)):
        result = _read(reader, ",".join(header) + "\n" + body)
        assert all(r.line >= 2 for r in result.rejected_rows)
