"""Frame construction from filled series.

Framing reads a `FilledSeries` (see `interp`): the months first..m as the
arrays `values` and `is_real`, and the final observation `last` at month n.
Every frame is a slice of those arrays. A frame spans 13 consecutive months
[i, i+12]; its input matrix encodes the first 12 of them and its prediction
target sits one month past the span, at i+13. With m the month of the
second-to-last observation and n the month of the last one:

* first-stage frames slide i one month at a time while i+12 <= m-1 and the
  target month i+13 <= m, so neither the window nor the target ever touches
  the uninterpolated zone (m, n]. `real_count` counts genuinely observed
  months within the 13-month span (interpolated fills never count), and
  frames with real_count < certain are dropped.
* the second-stage frame is the single span [m-12, m], the last 13 entries
  of the arrays, with target value at month n and gap g = n - m - 1. It is
  rejected when g exceeds 6 (half the frame width) and absent when the span
  would start before the first observation. g = 0 (n = m+1) degenerates to
  first-stage geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import Gender
from .encoding import FRAME_WIDTH, encode_frame, normalize
from .interp import FilledSeries

FRAME_SPAN = FRAME_WIDTH + 1  # inclusive month span covered by one frame
MAX_GAP = FRAME_WIDTH // 2
_SPAN = np.arange(FRAME_SPAN)


@dataclass(slots=True)
class Frame:
    patient_id: str
    input: np.ndarray  # (12, 5)
    target: float  # normalized
    gap: int
    real_count: int
    window_start: int


def build_stage1_frames(
    series: FilledSeries, age_at_start: float, gender: Gender, certain: int
) -> list[Frame]:
    """All sliding supervised frames of a filled series.

    `certain` in [0, 5] is the minimum number of real observations a frame's
    span must contain. Short series yield an empty list. The frames' inputs
    are views of one block, encoded by one `encode_frame` call.
    """
    count = len(series.values) - FRAME_SPAN
    if count <= 0:
        return []
    spans = np.arange(count)[:, None] + _SPAN  # offsets of each frame's 13 months
    real_spans = series.is_real[spans]
    starts = np.arange(series.first, series.first + count)
    block = encode_frame(series.patient_id, series.parameter, age_at_start + starts / 12.0,
                         gender, series.values[spans[:, :FRAME_WIDTH]], real_spans[:, :FRAME_WIDTH])
    targets = [normalize(v) for v in series.values[FRAME_SPAN:].tolist()]
    return [
        Frame(series.patient_id, block[row], target, 0, real_count, start)
        for row, (start, target, real_count) in enumerate(
            zip(starts.tolist(), targets, real_spans.sum(axis=1).tolist()))
        if real_count >= certain
    ]


def build_stage2_frame(series: FilledSeries, age_at_start: float, gender: Gender) -> Frame | None:
    """The isolated rollout frame: the last 13 filled months, target `last`."""
    if len(series.values) < FRAME_SPAN:
        return None
    start = series.first + len(series.values) - FRAME_SPAN
    gap = series.last.month - start - FRAME_SPAN
    if gap > MAX_GAP:
        return None
    values, flags = series.values[-FRAME_SPAN:], series.is_real[-FRAME_SPAN:]
    matrix = encode_frame(series.patient_id, series.parameter, age_at_start + start / 12.0,
                          gender, values[:FRAME_WIDTH], flags[:FRAME_WIDTH])
    return Frame(series.patient_id, matrix, normalize(series.last.value),
                 gap, int(flags.sum()), start)
