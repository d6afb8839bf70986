import math

import numpy as np
import pytest

from glp.cohort import Gender, LabParameter
from glp.encoding import denormalize, discrete_codes, encode_frame, normalize
from glp.errors import EncodingError


def test_normalize_identities():
    assert normalize(0.0) == 0.0
    assert normalize(math.e - 1.0) == pytest.approx(1.0, abs=1e-15)


def test_normalize_round_trip():
    for x in (137.5, 0.0, 1e-9, 5.4, 420.0):
        assert denormalize(normalize(x)) == pytest.approx(x, rel=1e-12, abs=1e-15)


def test_normalize_rejects_negative():
    with pytest.raises(EncodingError):
        normalize(-0.1)


def test_normalize_strictly_increasing():
    xs = np.sort(np.random.default_rng(1).uniform(0, 500, 100))
    ys = [normalize(x) for x in xs]
    assert all(b > a for a, b in zip(ys, ys[1:]))


def test_discrete_examples():
    assert discrete_codes(LabParameter.GLUCOSE_AC, [110])[0] == 1
    assert discrete_codes(LabParameter.WBC, [4.0])[0] == 1
    assert discrete_codes(LabParameter.CHOL_HDL, [5.0])[0] == 0


# (parameter, threshold, code at threshold, code just above)
BOUNDARIES = [
    (LabParameter.CHOL_HDL, 5.0, 0, 1),
    (LabParameter.LDL, 160.0, 0, 1),
    (LabParameter.LDL_HDL, 3.5, 0, 1),
    (LabParameter.GLUCOSE_AC, 100.0, 0, 1),
    (LabParameter.GLUCOSE_AC, 125.0, 1, 2),
    (LabParameter.WBC, 4.0, 1, 1),  # uses <, so the threshold itself is upper
    (LabParameter.WBC, 9.0, 2, 2),
    (LabParameter.UA, 3.4, 0, 1),
    (LabParameter.UA, 7.0, 1, 2),
]


@pytest.mark.parametrize("parameter,threshold,at,above", BOUNDARIES)
def test_discrete_boundaries(parameter, threshold, at, above):
    assert discrete_codes(parameter, [threshold])[0] == at
    assert discrete_codes(parameter, [threshold + 1e-9])[0] == above
    # strictness on the lower side for the <-style thresholds
    if at != above:
        assert discrete_codes(parameter, [threshold - 1e-9])[0] == at


@pytest.mark.parametrize("parameter", list(LabParameter))
def test_discrete_monotone(parameter):
    grid = np.linspace(0.1, 300.0, 4000)
    codes = discrete_codes(parameter, grid)
    assert np.all(np.diff(codes) >= 0)


def test_encode_frame_layout():
    values = [90.0] * 12
    flags = [1.0] * 12
    frame = encode_frame("P1", LabParameter.GLUCOSE_AC, 60.0, Gender.MALE, values, flags)
    assert frame.shape == (12, 5)
    assert np.all(frame[:, 0] == normalize(60.0))
    assert np.all(frame[:, 1] == 1.0)  # male
    assert np.all(frame[:, 2] == 1.0)  # fully real window
    assert np.all(frame[:, 3] == 0.0)  # glucose 90 is in the low bucket
    assert np.all(frame[:, 4] == math.log1p(90.0))


def test_encode_frame_female_and_flags():
    flags = [0.0] * 11 + [1.0]
    frame = encode_frame("P1", LabParameter.WBC, 45.0, Gender.FEMALE, [6.0] * 12, flags)
    assert np.all(frame[:, 1] == 0.0)
    assert frame[11, 2] == 1.0 and np.all(frame[:11, 2] == 0.0)


def test_encode_frame_rejects_nonfinite():
    values = [90.0] * 12
    values[3] = float("nan")
    with pytest.raises(EncodingError, match="P7.*WBC.*3"):
        encode_frame("P7", LabParameter.WBC, 50.0, Gender.MALE, values, [1.0] * 12)


def test_encode_frame_rejects_wrong_width():
    with pytest.raises(EncodingError):
        encode_frame("P1", LabParameter.UA, 50.0, Gender.MALE, [5.0] * 11, [1.0] * 11)


def test_block_encode_matches_single_windows():
    """A (k, 12) block is k single-window encodes, bit for bit. Age 40.5 is
    one where numpy's log1p and math.log1p differ on a SIMD build, so the age
    channel must stay on `normalize`."""
    rng = np.random.default_rng(5)
    values = rng.uniform(0.5, 300.0, (5, 12))
    flags = rng.integers(0, 2, (5, 12)).astype(float)
    ages = [40.5, 61.0 + 1 / 12.0, 18.25, 40.5, 99.75]
    block = encode_frame("P3", LabParameter.UA, ages, Gender.FEMALE, values, flags)
    assert block.shape == (5, 12, 5)
    for row, age in enumerate(ages):
        single = encode_frame("P3", LabParameter.UA, age, Gender.FEMALE, values[row], flags[row])
        assert block[row].tobytes() == single.tobytes()
    assert np.all(block[0, :, 0] == math.log1p(40.5))


def test_block_encode_names_the_window_month_of_a_nonfinite_value():
    values = np.full((4, 12), 90.0)
    values[2, 7] = float("inf")
    with pytest.raises(EncodingError, match="P9.*GLUCOSE_AC.*window month 7"):
        encode_frame("P9", LabParameter.GLUCOSE_AC, [50.0] * 4, Gender.MALE, values,
                     np.ones((4, 12)))
