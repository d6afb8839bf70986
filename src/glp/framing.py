"""Frame construction from interpolated series.

A frame spans 13 consecutive months [i, i+12]; its input matrix encodes the
first 12 of them and its prediction target sits one month past the span, at
i+13. With m the month of the second-to-last real observation and n the month
of the last one:

* first-stage frames slide i one month at a time while i+12 <= m-1 and the
  target month i+13 <= m, so neither the window nor the target ever touches
  the uninterpolated zone (m, n]. `real_count` counts genuinely observed
  months within the 13-month span (interpolated fills never count), and
  frames with real_count < certain are dropped.
* the second-stage frame is the single span [m-12, m] with target value at
  month n and gap g = n - m - 1. It is rejected when g exceeds 6 (half the
  frame width) and absent when the span would start before the first
  observation. g = 0 (n = m+1) degenerates to first-stage geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import Gender, LabParameter, LabSeries
from .encoding import FRAME_WIDTH, encode_frame, normalize

FRAME_SPAN = FRAME_WIDTH + 1  # inclusive month span covered by one frame
MAX_GAP = FRAME_WIDTH // 2
_SPAN = np.arange(FRAME_SPAN)


@dataclass
class Frame:
    patient_id: str
    parameter: LabParameter
    input: np.ndarray  # (12, 5)
    target: float  # normalized
    gap: int
    real_count: int
    window_start: int


def _interpolated_zone(series: LabSeries) -> tuple[np.ndarray, np.ndarray]:
    """Values and real flags of the interpolated zone `observations[:-1]`,
    month first..m, one entry per month."""
    zone = series.observations[:-1]
    if zone[-1].month - zone[0].month != len(zone) - 1:
        raise ValueError(
            f"{series.patient_id}/{series.parameter.value}: series must be interpolated first"
        )
    return np.array([o.value for o in zone]), np.array([o.is_real for o in zone])


def build_stage1_frames(
    series: LabSeries, age_at_start: float, gender: Gender, certain: int
) -> list[Frame]:
    """All sliding supervised frames of an interpolated series.

    `certain` in [0, 5] is the minimum number of real observations a frame's
    span must contain. Short series yield an empty list. The frames' inputs
    are views of one block, encoded by one `encode_frame` call.
    """
    real = series.real_months()
    if len(real) < 3:
        return []
    first, m = real[0], real[-2]
    count = m - FRAME_WIDTH - first
    if count <= 0:
        return []
    values, flags = _interpolated_zone(series)
    spans = np.arange(count)[:, None] + _SPAN  # zone offsets of each frame's 13 months
    real_spans = flags[spans]
    starts = np.arange(first, first + count)
    block = encode_frame(series.patient_id, series.parameter, age_at_start + starts / 12.0,
                         gender, values[spans[:, :FRAME_WIDTH]], real_spans[:, :FRAME_WIDTH])
    targets = [normalize(v) for v in values[FRAME_SPAN : FRAME_SPAN + count].tolist()]
    return [
        Frame(series.patient_id, series.parameter, block[row], target, 0, real_count, start)
        for row, (start, target, real_count) in enumerate(
            zip(starts.tolist(), targets, real_spans.sum(axis=1).tolist()))
        if real_count >= certain
    ]


def build_stage2_frame(series: LabSeries, age_at_start: float, gender: Gender) -> Frame | None:
    """The isolated rollout frame ending at the second-to-last real month."""
    real = series.real_months()
    if len(real) < 2:
        return None
    first, m, n = real[0], real[-2], real[-1]
    start = m - FRAME_WIDTH
    if start < first:
        return None
    gap = n - m - 1
    if gap > MAX_GAP:
        return None
    values, flags = _interpolated_zone(series)
    # the span [m-12, m] is the last 13 months of the zone
    window = slice(start - first, m - first)
    matrix = encode_frame(series.patient_id, series.parameter, age_at_start + start / 12.0,
                          gender, values[window], flags[window])
    return Frame(series.patient_id, series.parameter, matrix,
                 normalize(series.observations[-1].value), gap,
                 int(flags[start - first :].sum()), start)
