import math

import numpy as np
import pytest

from glp.cohort import Gender, LabParameter, LabSeries, Observation
from glp.encoding import encode_frame, normalize
from glp.framing import FRAME_SPAN, MAX_GAP, build_stage1_frames, build_stage2_frame
from glp.interp import InterpMethod, interpolate_series


def _interp(months, values=None):
    values = values if values is not None else [100.0 + 2 * m for m in months]
    obs = [Observation(m, v) for m, v in zip(months, values)]
    series = LabSeries("P1", LabParameter.GLUCOSE_AC, obs)
    return interpolate_series(series, InterpMethod.LINEAR)


def _months(series):
    """A filled series as a month lookup {month: (value, is_real)}, the last
    observation included, and its real months in order."""
    lookup = {series.first + k: pair
              for k, pair in enumerate(zip(series.values.tolist(), series.is_real.tolist()))}
    lookup[series.last.month] = (series.last.value, True)
    return lookup, [month for month, (_, is_real) in lookup.items() if is_real]


def brute_force_stage1(series, certain):
    """Independent sliding-window enumerator used as the framing oracle."""
    lookup, real = _months(series)
    first, m = real[0], real[-2]
    expected = []
    for start in range(first, m + 1):
        if start + 12 > m - 1:
            continue  # window span cannot fit before the isolated tail
        if start + 13 > m:
            continue  # target would leave the interpolated zone
        real_count = sum(lookup[month][1] for month in range(start, start + 13))
        if real_count < certain:
            continue
        expected.append((start, normalize(lookup[start + 13][0]), real_count))
    return expected


def test_stage1_example_indices():
    series = _interp([0, 3, 6, 9, 12, 15, 18])
    frames = build_stage1_frames(series, 50.0, Gender.MALE, certain=0)
    assert [f.window_start for f in frames] == [0, 1, 2]
    lookup, _ = _months(series)
    assert [f.target for f in frames] == [normalize(lookup[m][0]) for m in (13, 14, 15)]
    assert all(f.gap == 0 for f in frames)


def test_stage1_certainty_filter():
    series = _interp([0, 3, 6, 9, 12, 15, 18])
    frames = build_stage1_frames(series, 50.0, Gender.MALE, certain=5)
    assert [f.window_start for f in frames] == [0]
    assert frames[0].real_count == 5  # months 0, 3, 6, 9, 12
    all_frames = build_stage1_frames(series, 50.0, Gender.MALE, certain=0)
    assert [f.real_count for f in all_frames] == [5, 4, 4]


def test_stage1_short_series_empty():
    assert build_stage1_frames(_interp([0, 3, 6, 9, 12]), 50.0, Gender.MALE, 0) == []
    pair = _interp([0, 30])  # a one-month zone: no frame of either stage
    assert build_stage1_frames(pair, 50.0, Gender.MALE, 0) == []
    assert build_stage2_frame(pair, 50.0, Gender.MALE) is None


def test_stage1_monotone_in_certain():
    series = _interp([0, 2, 5, 9, 14, 17, 21, 25, 28])
    previous = None
    for certain in range(6):
        starts = {f.window_start for f in build_stage1_frames(series, 50.0, Gender.MALE, certain)}
        if previous is not None:
            assert starts <= previous
        previous = starts


def test_stage2_example():
    series = _interp([0, 3, 6, 9, 12, 15, 18])
    frame = build_stage2_frame(series, 50.0, Gender.MALE)
    assert frame is not None
    assert frame.window_start == 3
    assert frame.gap == 2
    assert frame.target == normalize(_months(series)[0][18][0])


def test_stage2_adjacent_final_observations():
    series = _interp([0, 3, 6, 9, 12, 13])
    frame = build_stage2_frame(series, 50.0, Gender.MALE)
    assert frame is not None and frame.gap == 0


def test_stage2_gap_cap():
    series = _interp([0, 3, 6, 9, 12, 20])  # g = 20 - 12 - 1 = 7 > 6
    assert build_stage2_frame(series, 50.0, Gender.MALE) is None


def test_stage2_window_before_first_observation():
    series = _interp([0, 3, 9, 11])  # m = 9, window would start at -3
    assert build_stage2_frame(series, 50.0, Gender.MALE) is None


def test_stage2_needs_a_13_month_zone():
    exact = _interp([5, 9, 17, 20])  # zone 5..17: 13 months
    assert len(exact.values) == FRAME_SPAN
    frame = build_stage2_frame(exact, 50.0, Gender.MALE)
    assert frame.window_start == exact.first == 5
    assert (frame.gap, frame.real_count) == (2, 3)
    short = _interp([5, 9, 16, 20])  # zone 5..16: 12 months
    assert len(short.values) == FRAME_SPAN - 1
    assert build_stage2_frame(short, 50.0, Gender.MALE) is None


def _random_interpolated_series(rng):
    n = int(rng.integers(3, 12))
    months = np.unique(rng.integers(0, 45, n)).tolist()
    while len(months) < 3:
        months = np.unique(rng.integers(0, 45, n + 2)).tolist()
    values = rng.uniform(60, 150, len(months)).tolist()
    obs = [Observation(m, v) for m, v in zip(months, values)]
    series = LabSeries("PX", LabParameter.GLUCOSE_AC, obs)
    return interpolate_series(series, InterpMethod.LINEAR)


def test_stage1_matches_brute_force_oracle():
    rng = np.random.default_rng(99)
    for _ in range(150):
        series = _random_interpolated_series(rng)
        for certain in range(6):
            frames = build_stage1_frames(series, 44.0, Gender.FEMALE, certain)
            got = [(f.window_start, f.target, f.real_count) for f in frames]
            assert got == brute_force_stage1(series, certain)


def test_stage1_never_leaks_past_m():
    rng = np.random.default_rng(123)
    for _ in range(100):
        series = _random_interpolated_series(rng)
        m = _months(series)[1][-2]
        for frame in build_stage1_frames(series, 44.0, Gender.FEMALE, 0):
            assert frame.window_start + FRAME_SPAN <= m  # window and target


def test_frame_matrix_contents():
    series = _interp([0, 3, 6, 9, 12, 15, 18])
    frame = build_stage1_frames(series, 50.0, Gender.MALE, 0)[1]  # starts at month 1
    assert frame.input.shape == (12, 5)
    # age advances to the window start before log1p
    assert frame.input[0, 0] == pytest.approx(math.log1p(50.0 + 1 / 12.0))
    lookup, _ = _months(series)
    for row, month in enumerate(range(1, 13)):
        assert frame.input[row, 4] == pytest.approx(math.log1p(lookup[month][0]))
        assert frame.input[row, 2] == (1.0 if lookup[month][1] else 0.0)


def _per_frame_stage1(series, age, gender, certain):
    """Stage-1 frames built one at a time: a month lookup and a single-window
    `encode_frame` per frame, every target normalized before the filter."""
    lookup, real = _months(series)
    if len(real) < 3:
        return []
    first, m = real[0], real[-2]
    frames = []
    for start in range(first, m - 12):
        window = range(start, start + 12)
        matrix = encode_frame(series.patient_id, series.parameter, age + start / 12.0, gender,
                              [lookup[t][0] for t in window], [float(lookup[t][1]) for t in window])
        target = normalize(lookup[start + 13][0])
        real_count = sum(lookup[t][1] for t in range(start, start + 13))
        if real_count >= certain:
            frames.append((matrix.tobytes(), target, 0, real_count, start))
    return frames


def _per_frame_stage2(series, age, gender):
    lookup, real = _months(series)
    if len(real) < 2:
        return None
    first, m, n = real[0], real[-2], real[-1]
    start = m - 12
    if start < first or n - m - 1 > MAX_GAP:
        return None
    window = range(start, m)
    matrix = encode_frame(series.patient_id, series.parameter, age + start / 12.0, gender,
                          [lookup[t][0] for t in window], [float(lookup[t][1]) for t in window])
    real_count = sum(lookup[t][1] for t in range(start, m + 1))
    return matrix.tobytes(), normalize(lookup[n][0]), n - m - 1, real_count, start


def _as_tuple(frame):
    return frame.input.tobytes(), frame.target, frame.gap, frame.real_count, frame.window_start


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # the block path must raise what the per-frame path raises
        return type(exc)


@pytest.mark.parametrize("method", list(InterpMethod))
def test_frames_match_per_frame_construction_bit_for_bit(method):
    """Block framing equals the per-frame construction in input bytes, target,
    gap, real count and start; a series that raises raises the same type."""
    rng = np.random.default_rng(2024)
    raised = 0
    for k in range(200):
        n = int(rng.integers(3, 14))
        months = np.unique(rng.integers(0, 60, n)).tolist()
        if len(months) < 3:
            continue
        values = rng.uniform(1.0, 150.0, len(months)).tolist()
        obs = [Observation(m, v) for m, v in zip(months, values)]
        series = interpolate_series(LabSeries(f"P{k}", LabParameter.WBC, obs), method)
        age, gender = float(rng.uniform(18, 90)), [Gender.MALE, Gender.FEMALE][k % 2]
        for certain in (0, 3):
            with np.errstate(invalid="ignore"):  # log1p of an overshoot below -1
                expected = _outcome(_per_frame_stage1, series, age, gender, certain)
                got = _outcome(build_stage1_frames, series, age, gender, certain)
            if isinstance(expected, list):
                assert [_as_tuple(f) for f in got] == expected
            else:
                assert got is expected
                raised += 1
        with np.errstate(invalid="ignore"):
            expected = _outcome(_per_frame_stage2, series, age, gender)
            got = _outcome(build_stage2_frame, series, age, gender)
        if expected is None or isinstance(expected, tuple):
            assert (got if got is None else _as_tuple(got)) == expected
        else:
            assert got is expected
    if method is InterpMethod.BARYCENTRIC:
        assert raised > 0  # overshoot below zero is covered

