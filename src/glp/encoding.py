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

# Clinical reference thresholds per parameter (ascending) and the `np.searchsorted`
# side that places a value equal to a threshold: "left" in the lower code (<=),
# "right" in the upper one (<; WBC only).
CODE_THRESHOLDS: dict[LabParameter, tuple[np.ndarray, str]] = {
    LabParameter.CHOL_HDL: (np.array([5.0]), "left"),
    LabParameter.LDL: (np.array([160.0]), "left"),
    LabParameter.LDL_HDL: (np.array([3.5]), "left"),
    LabParameter.GLUCOSE_AC: (np.array([100.0, 125.0]), "left"),
    LabParameter.WBC: (np.array([4.0, 9.0]), "right"),
    LabParameter.UA: (np.array([3.4, 7.0]), "left"),
}


def normalize(x: float) -> float:
    """log1p normalization; defined for x >= 0 only."""
    if x < 0:
        raise EncodingError(f"cannot normalize negative value {x}")
    return math.log1p(x)


def denormalize(y: float) -> float:
    """Exact inverse of `normalize`."""
    return math.expm1(y)


def discrete_codes(parameter: LabParameter, values: np.ndarray) -> np.ndarray:
    """Bucket native-unit lab values into their discrete reference codes
    (0, 1 or 2, as floats) by `CODE_THRESHOLDS`."""
    thresholds, side = CODE_THRESHOLDS[parameter]
    return np.searchsorted(thresholds, values, side=side).astype(float)


def encode_frame(
    patient_id: str,
    parameter: LabParameter,
    age_years,
    gender: Gender,
    values,
    flags,
) -> np.ndarray:
    """Assemble the (..., 12, 5) input matrices of one or more windows.

    `values` are native-unit lab values of each window's 12 months, shape
    (12,) for one window or (k, 12) for k, and `flags` their real/estimated
    markers. `age_years` is the patient's age at each window start, a scalar
    for one window or one per window, constant down the window's rows.
    """
    values = np.asarray(values, dtype=float)
    flags = np.asarray(flags, dtype=float)
    if values.shape[-1:] != (FRAME_WIDTH,) or flags.shape != values.shape:
        raise EncodingError(
            f"frame for {patient_id}/{parameter.value} needs {FRAME_WIDTH} months, "
            f"got shape {values.shape}"
        )
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argwhere(~finite)[0, -1])
        raise EncodingError(
            f"non-finite value for {patient_id}/{parameter.value} at window month {bad}"
        )
    frame = np.empty(values.shape + (5,), dtype=float)
    ages = [normalize(age) for age in np.array(age_years, dtype=float, ndmin=1).tolist()]
    frame[..., 0] = np.array(ages).reshape(values.shape[:-1] + (1,))
    frame[..., 1] = 1.0 if gender is Gender.MALE else 0.0
    frame[..., 2] = flags
    frame[..., 3] = discrete_codes(parameter, values)
    frame[..., 4] = np.log1p(values)
    return frame
