"""Synthetic cohorts and their CSV schemas.

Two cohorts stand in for the real registries the study design assumes:

* a longitudinal "pretext" cohort, where each patient carries six lab series
  observed at irregular visit months, driven by a planted AR(1)-with-drift
  latent process so there is real temporal structure to learn;
* an episodic "downstream" cohort of single-visit records with a binary
  outcome label and a month gap to the outcome, where positives get scattered
  lab values and negatives stable ones.

Both generators are pure functions of their spec (seed included); equal specs
produce byte-identical cohorts after serialization.

CSV schemas (UTF-8, newline-terminated, '.' decimal separator):

    pretext:  patient_id,age_at_start,gender,parameter,month,value
    episodic: patient_id,age,gender,chol_hdl,ldl,ldl_hdl,glucose_ac,wbc,ua,gap_months,label

Bad rows (unparseable fields, "NA"/"." values, non-positive values, repeated
or non-increasing months, months or gaps past `MAX_MONTHS`) are rejected per
row and reported; patients missing any of the six series are rejected whole.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import ConfigError, SchemaError
from .seeding import rng_from


class LabParameter(Enum):
    CHOL_HDL = "CHOL_HDL"
    LDL = "LDL"
    LDL_HDL = "LDL_HDL"
    GLUCOSE_AC = "GLUCOSE_AC"
    WBC = "WBC"
    UA = "UA"


PARAMETER_ORDER: tuple[LabParameter, ...] = tuple(LabParameter)

# The longest span the readers' accepted age range [18, 110] allows. It bounds
# a pretext month and an episodic gap: interpolation fills every month up to
# the last and feature extraction unrolls every record to the largest gap.
MAX_MONTHS = 12 * (110 - 18)

# episodic CSV column name per parameter
EPISODIC_COLUMNS = {
    LabParameter.CHOL_HDL: "chol_hdl",
    LabParameter.LDL: "ldl",
    LabParameter.LDL_HDL: "ldl_hdl",
    LabParameter.GLUCOSE_AC: "glucose_ac",
    LabParameter.WBC: "wbc",
    LabParameter.UA: "ua",
}


class Gender(Enum):
    MALE = "M"
    FEMALE = "F"


@dataclass(frozen=True)
class Observation:
    month: int
    value: float
    is_real: bool


@dataclass
class LabSeries:
    patient_id: str
    parameter: LabParameter
    observations: list[Observation]

    def validate(self) -> None:
        months = [o.month for o in self.observations]
        if any(b <= a for a, b in zip(months, months[1:])):
            raise SchemaError(f"{self.patient_id}/{self.parameter.value}: months not strictly increasing")
        if sum(o.is_real for o in self.observations) < 2:
            raise SchemaError(f"{self.patient_id}/{self.parameter.value}: needs >= 2 real observations")
        for o in self.observations:
            if not (math.isfinite(o.value) and o.value > 0):
                raise SchemaError(f"{self.patient_id}/{self.parameter.value}: bad value {o.value}")

    def real_months(self) -> list[int]:
        return [o.month for o in self.observations if o.is_real]


@dataclass
class Patient:
    patient_id: str
    age_at_start: float
    gender: Gender
    series: dict[LabParameter, LabSeries]


@dataclass
class EpisodicRecord:
    patient_id: str
    age: float
    gender: Gender
    values: dict[LabParameter, float]
    gap_months: int
    label: bool


@dataclass(frozen=True)
class GeneratorSpec:
    """Pretext cohort controls; defaults give a desk-scale but learnable cohort
    (many patients with ~2 years of quarterly visits each)."""

    n_patients: int = 240
    months_span: int = 24
    visit_period_mean: float = 3.0
    dropout_prob: float = 0.15
    seed: int = 0


@dataclass(frozen=True)
class DownstreamSpec:
    """Episodic cohort controls.

    `separation` scales how much wider the positives' lab-value scatter is
    than the negatives'; 0 makes the two classes indistinguishable given
    equal gap means. Positive gaps default to the memory horizon of the
    desk-scale forecasters (about 9 months) so their scatter survives the
    rollout while the long-censored negatives converge; the censoring mean
    mirrors the downstream cohort profile.
    """

    n_positive: int
    n_negative: int
    separation: float = 1.0
    seed: int = 0
    g_mean_positive: float = 9.0
    g_mean_negative: float = 106.0


# Planted process profile per parameter: (level mean, level sd, monthly AR
# coefficient, drift fraction of mean per month, measurement noise sd).
# Level means sit inside the clinical reference ranges used by the discrete
# encoding; spreads are wide enough that the log1p-normalized signal is well
# above measurement noise, so one-step forecasting is genuinely learnable.
_PROCESS = {
    LabParameter.CHOL_HDL: (4.0, 1.2, 0.97, 0.0010, 0.12),
    LabParameter.LDL: (120.0, 38.0, 0.97, 0.0010, 4.0),
    LabParameter.LDL_HDL: (2.6, 0.9, 0.97, 0.0010, 0.09),
    LabParameter.GLUCOSE_AC: (95.0, 26.0, 0.97, 0.0020, 2.5),
    LabParameter.WBC: (6.5, 2.2, 0.97, 0.0005, 0.20),
    LabParameter.UA: (5.4, 1.7, 0.97, 0.0005, 0.15),
}


def _visit_months(spec: GeneratorSpec, rng) -> list[int]:
    p = 1.0 / spec.visit_period_mean
    months = [0]
    while True:
        gap = int(rng.geometric(p))
        if months[-1] + gap > spec.months_span:
            break
        months.append(months[-1] + gap)
    if len(months) == 1:
        months.append(spec.months_span)
    return months


def _series_values(parameter: LabParameter, months: list[int], rng) -> list[float]:
    mean, sd, rho, drift_frac, noise_sd = _PROCESS[parameter]
    innovation_sd = sd * math.sqrt(1.0 - rho * rho)
    floor = 0.05 * mean
    deviation = rng.normal(0.0, sd)
    levels = {}
    for month in range(months[-1] + 1):
        if month > 0:
            deviation = rho * deviation + rng.normal(0.0, innovation_sd)
        levels[month] = mean * (1.0 + drift_frac * month) + deviation
    values = []
    for month in months:
        value = levels[month] + rng.normal(0.0, noise_sd)
        values.append(max(value, floor))
    return values


def generate_pretext_cohort(spec: GeneratorSpec) -> list[Patient]:
    """Generate the longitudinal cohort; deterministic in (spec, seed)."""
    if spec.n_patients < 1:
        raise ConfigError("n_patients must be >= 1")
    if spec.visit_period_mean < 1:
        raise ConfigError("visit_period_mean must be >= 1")
    if spec.months_span < 2:
        raise ConfigError("months_span must be >= 2")
    if not 0.0 <= spec.dropout_prob < 1.0:
        raise ConfigError("dropout_prob must be in [0, 1)")

    patients = []
    for index in range(spec.n_patients):
        pid = f"P{index:05d}"
        demo_rng = rng_from(spec.seed, "patient", index, "demo")
        age = float(min(max(demo_rng.normal(57.0, 9.7), 18.0), 95.0))
        gender = Gender.MALE if demo_rng.random() < 0.518 else Gender.FEMALE
        visits = _visit_months(spec, rng_from(spec.seed, "patient", index, "visits"))
        series = {}
        for parameter in PARAMETER_ORDER:
            srng = rng_from(spec.seed, "patient", index, "series", parameter.value)
            # first and last visits always observed; interior ones drop out
            kept = [visits[0]]
            for month in visits[1:-1]:
                if srng.random() >= spec.dropout_prob:
                    kept.append(month)
            if len(visits) > 1:
                kept.append(visits[-1])
            values = _series_values(parameter, kept, srng)
            obs = [Observation(m, v, True) for m, v in zip(kept, values)]
            series[parameter] = LabSeries(pid, parameter, obs)
            series[parameter].validate()
        patients.append(Patient(pid, age, gender, series))
    return patients


def generate_downstream_cohort(spec: DownstreamSpec) -> list[EpisodicRecord]:
    """Generate the episodic cohort; positives first, then negatives."""
    if spec.n_positive < 1 or spec.n_negative < 1:
        raise ConfigError("n_positive and n_negative must be >= 1")
    if spec.separation < 0:
        raise ConfigError("separation must be >= 0")

    records = []
    plan = [(True, spec.n_positive, spec.g_mean_positive), (False, spec.n_negative, spec.g_mean_negative)]
    index = 0
    for label, count, g_mean in plan:
        for _ in range(count):
            rng = rng_from(spec.seed, "record", index)
            age = float(min(max(rng.normal(66.8, 12.5), 18.0), 100.0))
            gender = Gender.MALE if rng.random() < 0.832 else Gender.FEMALE
            values = {}
            for parameter in PARAMETER_ORDER:
                mean, sd, _, _, _ = _PROCESS[parameter]
                scatter = sd * (1.0 + spec.separation) if label else sd
                values[parameter] = max(mean + rng.normal(0.0, scatter), 0.05 * mean)
            gap = int(1 + rng.poisson(max(g_mean - 1.0, 0.0)))
            records.append(EpisodicRecord(f"D{index:05d}", age, gender, values, gap, label))
            index += 1
    return records


# ---------------------------------------------------------------------------
# CSV IO


@dataclass
class RowRejection:
    line: int
    reason: str


@dataclass
class CohortReadResult:
    patients: list[Patient]
    rejected_rows: list[RowRejection] = field(default_factory=list)
    rejected_patients: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class EpisodicReadResult:
    records: list[EpisodicRecord]
    rejected_rows: list[RowRejection] = field(default_factory=list)


_PRETEXT_HEADER = ["patient_id", "age_at_start", "gender", "parameter", "month", "value"]
_EPISODIC_HEADER = (
    ["patient_id", "age", "gender"]
    + [EPISODIC_COLUMNS[p] for p in PARAMETER_ORDER]
    + ["gap_months", "label"]
)


def _parse_value(text: str) -> float:
    if text in ("NA", ".", ""):
        raise ValueError(f"erroneous value {text!r}")
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"non-positive or non-finite value {text!r}")
    return value


def write_cohort_csv(patients: list[Patient], path: str | Path) -> None:
    """One row per real observation, months ascending within each series."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_PRETEXT_HEADER)
        for patient in patients:
            for parameter in PARAMETER_ORDER:
                series = patient.series.get(parameter)
                if series is None:
                    continue
                for obs in series.observations:
                    if not obs.is_real:
                        continue
                    writer.writerow(
                        [
                            patient.patient_id,
                            repr(patient.age_at_start),
                            patient.gender.value,
                            parameter.value,
                            obs.month,
                            repr(obs.value),
                        ]
                    )


@contextmanager
def _csv_reader(path: str | Path):
    """csv.reader over a UTF-8 file; bytes that are not UTF-8 text or CSV are
    a schema error."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield csv.reader(fh)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise SchemaError(f"{path}: unreadable CSV ({exc})")


def read_cohort_csv(path: str | Path) -> CohortReadResult:
    result = CohortReadResult(patients=[])
    order: list[str] = []
    demo: dict[str, tuple[float, Gender]] = {}
    series: dict[str, dict[LabParameter, list[Observation]]] = {}

    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header != _PRETEXT_HEADER:
            raise SchemaError(f"{path}: expected header {','.join(_PRETEXT_HEADER)}")
        for line, row in enumerate(reader, start=2):
            if len(row) != len(_PRETEXT_HEADER):
                result.rejected_rows.append(RowRejection(line, "wrong column count"))
                continue
            pid, age_text, gender_text, parameter_text, month_text, value_text = row
            try:
                age = float(age_text)
                if not 18.0 <= age <= 110.0:
                    raise ValueError(f"age {age} outside [18, 110]")
                gender = Gender(gender_text)
                parameter = LabParameter(parameter_text)
                month = int(month_text)
                if not 0 <= month <= MAX_MONTHS:
                    raise ValueError(f"month {month} outside [0, {MAX_MONTHS}]")
                value = _parse_value(value_text)
            except ValueError as exc:
                result.rejected_rows.append(RowRejection(line, str(exc)))
                continue
            if pid not in demo:
                demo[pid] = (age, gender)
                series[pid] = {}
                order.append(pid)
            elif demo[pid] != (age, gender):
                result.rejected_rows.append(RowRejection(line, f"inconsistent demographics for {pid}"))
                continue
            obs_list = series[pid].setdefault(parameter, [])
            if obs_list and month <= obs_list[-1].month:
                result.rejected_rows.append(
                    RowRejection(line, f"month {month} not increasing for {pid}/{parameter.value}")
                )
                continue
            obs_list.append(Observation(month, value, True))

    for pid in order:
        age, gender = demo[pid]
        missing = [p.value for p in PARAMETER_ORDER if len(series[pid].get(p, [])) < 2]
        if missing:
            result.rejected_patients.append((pid, f"missing or short series: {','.join(missing)}"))
            continue
        built = {p: LabSeries(pid, p, series[pid][p]) for p in PARAMETER_ORDER}
        result.patients.append(Patient(pid, age, gender, built))
    return result


def write_episodic_csv(records: list[EpisodicRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_EPISODIC_HEADER)
        for record in records:
            writer.writerow(
                [record.patient_id, repr(record.age), record.gender.value]
                + [repr(record.values[p]) for p in PARAMETER_ORDER]
                + [record.gap_months, int(record.label)]
            )


def read_episodic_csv(path: str | Path) -> EpisodicReadResult:
    result = EpisodicReadResult(records=[])
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header != _EPISODIC_HEADER:
            raise SchemaError(f"{path}: expected header {','.join(_EPISODIC_HEADER)}")
        for line, row in enumerate(reader, start=2):
            if len(row) != len(_EPISODIC_HEADER):
                result.rejected_rows.append(RowRejection(line, "wrong column count"))
                continue
            try:
                age = float(row[1])
                if not 18.0 <= age <= 110.0:
                    raise ValueError(f"age {age} outside [18, 110]")
                gender = Gender(row[2])
                values = {p: _parse_value(row[3 + i]) for i, p in enumerate(PARAMETER_ORDER)}
                gap = int(row[9])
                if not 1 <= gap <= MAX_MONTHS:
                    raise ValueError(f"gap_months {gap} outside [1, {MAX_MONTHS}]")
                if row[10] not in ("0", "1"):
                    raise ValueError(f"label must be 0 or 1, got {row[10]!r}")
            except ValueError as exc:
                result.rejected_rows.append(RowRejection(line, str(exc)))
                continue
            result.records.append(
                EpisodicRecord(row[0], age, gender, values, gap, row[10] == "1")
            )
    return result
