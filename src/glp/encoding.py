"""Per-month feature encoding.

Each month of a frame becomes a 5-channel vector:

    [age_n, gender_b, real_flag, discrete_code, value_n]

Numeric channels (age, lab value) use log1p; gender and the real/estimated
flag are binary; the discrete channel buckets the lab value against its
clinical reference thresholds (two buckets for the ratio/LDL markers, three
for glucose, WBC and UA).
"""

from __future__ import annotations

import math

import numpy as np

from .cohort import Gender, LabParameter
from .errors import EncodingError

FRAME_WIDTH = 12

# (lower thresholds, comparison) per parameter; see `encode_discrete`.
_TWO_LEVEL = {
    LabParameter.CHOL_HDL: 5.0,
    LabParameter.LDL: 160.0,
    LabParameter.LDL_HDL: 3.5,
}


def normalize(x: float) -> float:
    """log1p normalization; defined for x >= 0 only."""
    if x < 0:
        raise EncodingError(f"cannot normalize negative value {x}")
    return math.log1p(x)


def denormalize(y: float) -> float:
    """Exact inverse of `normalize`."""
    return math.expm1(y)


def encode_discrete(parameter: LabParameter, value: float) -> int:
    """Bucket a lab value into its discrete reference category.

    Chol/HDL <=5 -> 0 else 1; LDL <=160 -> 0 else 1; LDL/HDL <=3.5 -> 0 else 1;
    glucose AC <=100 -> 0, <=125 -> 1, else 2; WBC <4 -> 0, <9 -> 1, else 2;
    UA <=3.4 -> 0, <=7 -> 1, else 2.
    """
    return int(discrete_codes(parameter, np.asarray([value], dtype=float))[0])


def discrete_codes(parameter: LabParameter, values: np.ndarray) -> np.ndarray:
    """Vectorized `encode_discrete` over an array of native-unit values."""
    v = np.asarray(values, dtype=float)
    if parameter in _TWO_LEVEL:
        return (v > _TWO_LEVEL[parameter]).astype(float)
    if parameter is LabParameter.GLUCOSE_AC:
        return np.where(v <= 100.0, 0.0, np.where(v <= 125.0, 1.0, 2.0))
    if parameter is LabParameter.WBC:
        return np.where(v < 4.0, 0.0, np.where(v < 9.0, 1.0, 2.0))
    if parameter is LabParameter.UA:
        return np.where(v <= 3.4, 0.0, np.where(v <= 7.0, 1.0, 2.0))
    raise EncodingError(f"unknown parameter {parameter}")


def encode_frame(
    patient_id: str,
    parameter: LabParameter,
    age_years: float,
    gender: Gender,
    values,
    flags,
) -> np.ndarray:
    """Assemble the (12, 5) input matrix for one frame.

    `age_years` is the patient's age at the window start and is constant down
    the rows. `values` are native-unit lab values for the 12 window months,
    `flags` their real/estimated markers.
    """
    values = np.asarray(values, dtype=float)
    flags = np.asarray(flags, dtype=float)
    if values.shape != (FRAME_WIDTH,) or flags.shape != (FRAME_WIDTH,):
        raise EncodingError(
            f"frame for {patient_id}/{parameter.value} needs {FRAME_WIDTH} months, "
            f"got {values.shape[0]}"
        )
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise EncodingError(
            f"non-finite value for {patient_id}/{parameter.value} at window month {bad}"
        )
    frame = np.empty((FRAME_WIDTH, 5), dtype=float)
    frame[:, 0] = normalize(age_years)
    frame[:, 1] = 1.0 if gender is Gender.MALE else 0.0
    frame[:, 2] = flags
    frame[:, 3] = discrete_codes(parameter, values)
    frame[:, 4] = np.log1p(values)
    return frame
