import json
import logging
import struct
import zlib

import pytest

from glp.cli import main
from glp.cohort import PARAMETER_ORDER


def tiny_config(tmp_path, **extra):
    config = {
        "seed": 3,
        "out_dir": str(tmp_path / "run"),
        "pretext": {"n_patients": 26, "months_span": 24},
        "downstream": {"n_positive": 8, "n_negative": 24},
        "train": {"epochs": 2, "folds": 2, "certain": 1},
        "transfer": {"repetitions": 2},
    }
    for key, value in extra.items():
        config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, tmp_path / "run"


def test_synth_writes_cohorts_and_manifest(tmp_path):
    config, out = tiny_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    assert (out / "pretext.csv").exists()
    assert (out / "episodic.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"pretext.csv", "episodic.csv"}
    assert manifest["seed"] == 3


def test_synth_rejects_a_months_span_the_reader_would_reject(tmp_path):
    config, out = tiny_config(tmp_path, pretext={"n_patients": 3, "months_span": 1105})
    assert main(["synth", "--config", str(config)]) == 2
    assert not out.exists()


def test_synth_rejects_a_gap_mean_the_reader_would_reject(tmp_path):
    downstream = {"n_positive": 8, "n_negative": 24, "g_mean_negative": 5000}
    config, out = tiny_config(tmp_path, downstream=downstream)
    assert main(["synth", "--config", str(config)]) == 2
    assert not out.exists()


def test_pretrain_requires_synth(tmp_path):
    config, _ = tiny_config(tmp_path)
    assert main(["pretrain", "--config", str(config)]) == 3


def test_transfer_requires_weights(tmp_path):
    config, _ = tiny_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["transfer", "--config", str(config)]) == 3


def test_full_study_artifacts(tmp_path):
    config, out = tiny_config(tmp_path)
    assert main(["all", "--config", str(config)]) == 0
    for parameter in PARAMETER_ORDER:
        assert (out / f"weights_{parameter.value}.glp").exists()
    for name in (
        "pretext.csv", "episodic.csv", "pretrain_report.json", "certain_grid.csv",
        "downstream_report.json", "downstream_table.csv", "distribution.csv", "manifest.json",
    ):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["artifacts"]) == 6 + 2 + 2 + 3
    report = json.loads((out / "downstream_report.json").read_text())
    assert set(report["averaged"]) == {"raw", "emb", "out"}

    # verify accepts the weight files it just wrote
    paths = [str(out / f"weights_{p.value}.glp") for p in PARAMETER_ORDER]
    assert main(["verify", *paths]) == 0


def test_pretrain_sweep_flag(tmp_path):
    config, out = tiny_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["pretrain", "--config", str(config), "--certain", "sweep"]) == 0
    grid = (out / "certain_grid.csv").read_text().splitlines()
    assert len(grid) == 1 + 6 * len(PARAMETER_ORDER)  # header + 6 thresholds per parameter
    report = json.loads((out / "pretrain_report.json").read_text())
    assert report["certain"] == "sweep"
    for result in report["parameters"].values():
        assert len(result["grid"]) == 6
        assert 0 <= result["chosen_certain"] <= 5
    # saved weights carry the chosen threshold
    for parameter in PARAMETER_ORDER:
        from glp.netcore import load_weights

        model = load_weights(out / f"weights_{parameter.value}.glp")
        assert model.certain == report["parameters"][parameter.value]["chosen_certain"]


def test_verify_flags_corruption(tmp_path, capsys):
    config, out = tiny_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["pretrain", "--config", str(config)]) == 0
    target = out / "weights_UA.glp"
    blob = bytearray(target.read_bytes())
    blob[50] ^= 0x01
    target.write_bytes(bytes(blob))
    assert main(["verify", str(target)]) == 5
    assert "FAIL" in capsys.readouterr().out
    assert main(["verify", str(tmp_path / "missing.glp")]) == 5
    assert main(["verify", str(out)]) == 5  # a directory is not a weight file
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_an_oversized_weight_file(tmp_path, capsys):
    target = tmp_path / "weights_UA.glp"
    with open(target, "wb") as fh:
        fh.truncate(512 << 20)  # sparse: 512 MiB long, no data written
    assert main(["verify", str(target)]) == 5
    assert "oversized" in capsys.readouterr().out


def test_verify_rejects_non_finite_weights(tmp_path, capsys):
    config, out = tiny_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["pretrain", "--config", str(config)]) == 0
    target = out / "weights_UA.glp"
    payload = bytearray(target.read_bytes()[:-4])
    payload[8:16] = struct.pack("<d", float("nan"))  # first weight; the CRC stays valid
    target.write_bytes(bytes(payload) + struct.pack("<I", zlib.crc32(payload)))
    assert main(["verify", str(target)]) == 5
    assert "FAIL" in capsys.readouterr().out
    assert main(["transfer", "--config", str(config)]) == 5


def test_transfer_rejects_weights_of_another_parameter(tmp_path):
    config, out = tiny_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["pretrain", "--config", str(config)]) == 0
    (out / "weights_WBC.glp").write_bytes((out / "weights_UA.glp").read_bytes())
    assert main(["transfer", "--config", str(config)]) == 5


def test_transfer_logs_rejected_episodic_rows(tmp_path, caplog):
    config, out = tiny_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    assert main(["pretrain", "--config", str(config)]) == 0
    with open(out / "episodic.csv", "a", encoding="utf-8") as fh:
        fh.write("D99999,60,M,1.0\n")
    with caplog.at_level(logging.WARNING, logger="glp.cli"):
        assert main(["transfer", "--config", str(config)]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert "ingestion rejected 1 episodic rows" in warnings


@pytest.mark.parametrize("command, name", [("pretrain", "pretext.csv"),
                                           ("transfer", "episodic.csv")])
def test_input_csv_that_cannot_be_opened_is_a_schema_error(tmp_path, command, name):
    _, out = tiny_config(tmp_path)
    out.mkdir()
    (out / name).mkdir()
    for parameter in PARAMETER_ORDER:  # they must exist; transfer reads the CSV first
        (out / f"weights_{parameter.value}.glp").touch()
    assert main([command, "--config", str(tmp_path / "config.json")]) == 4


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "bogus": True}))
    assert main(["synth", "--config", str(path)]) == 2


@pytest.mark.parametrize("override", [
    {"train": {"epochs": "2"}},
    {"pretext": {"n_patients": "10"}},
    {"seed": "a"},
    {"jobs": "x"},
    {"train": {"batch_size": True}},
], ids=["epochs-str", "n_patients-str", "seed-str", "jobs-str", "batch_size-bool"])
def test_config_value_of_wrong_type_rejected(tmp_path, override):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "run"), **override}))
    assert main(["synth", "--config", str(path)]) == 2


CONFIG_DIRECTORY = object()  # the --config path is a directory


@pytest.mark.parametrize("override", [
    {"jobs": 0},
    {"jobs": -2},
    {"transfer": {"repetitions": 0}},
    {"transfer": {"split_ratio": 0.0}},
    {"transfer": {"split_ratio": 1.5}},
    {"pretext": {"visit_period_mean": float("nan")}},
    {"downstream": {"separation": float("nan")}},
    {"train": {"learning_rate": float("nan")}},
    {"train": {"learning_rate": float("inf")}},
    {"train": {"learning_rate": -1.0}},
    {"train": {"learning_rate": 0.0}},
    "[" * 200_000,
    {"pretext": {"dropout_prob": 1.5}},
    {"pretext": {"months_span": 1}},
    {"pretext": {"visit_period_mean": 0.5}},
    {"downstream": {"n_positive": 0}},
    {"downstream": {"separation": -1.0}},
    # past each count's cap: checked at load, never generated or run
    {"pretext": {"n_patients": 10**20}},
    {"downstream": {"n_positive": 10**20}},
    {"downstream": {"n_negative": 10**20}},
    {"downstream": {"n_positive": 50_000, "n_negative": 50_000}},
    {"jobs": 10**20},
    {"train": {"epochs": 10**20}},
    {"transfer": {"repetitions": 10**20}},
    # files that cannot be read as JSON text
    b'\xff\xfe{}',
    '{"seed": 1' + "0" * 5_000 + "}",
    CONFIG_DIRECTORY,
], ids=["jobs-0", "jobs-negative", "repetitions-0", "split-0", "split-1.5",
        "visit-period-nan", "separation-nan", "learning-rate-nan", "learning-rate-inf",
        "learning-rate-negative", "learning-rate-0", "nested-200k",
        "dropout-1.5", "months-span-1", "visit-period-0.5", "n-positive-0", "separation-negative",
        "n-patients-1e20", "n-positive-1e20", "n-negative-1e20", "records-100k", "jobs-1e20",
        "epochs-1e20", "repetitions-1e20", "not-utf8", "int-5000-digits", "directory"])
def test_run_settings_rejected_at_config_load(tmp_path, override):
    path = tmp_path / "config.json"
    if override is CONFIG_DIRECTORY:
        path.mkdir()
    elif isinstance(override, bytes):
        path.write_bytes(override)
    else:
        path.write_text(override if isinstance(override, str) else json.dumps(override))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["pretrain", "transfer"])
@pytest.mark.parametrize("section", [
    {"pretext": {"dropout_prob": 1.5}},
    {"downstream": {"n_positive": 0}},
], ids=["pretext", "downstream"])
def test_every_command_checks_every_section(tmp_path, command, section):
    config, out = tiny_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    bad, _ = tiny_config(tmp_path, **section)
    assert main([command, "--config", str(bad)]) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    empty = tmp_path / "empty"
    assert main([command, "--config", str(bad), "--out", str(empty)]) == 2
    assert not empty.exists()


def test_jobs_flag_rejected_like_the_config_value(tmp_path, capsys):
    config, _ = tiny_config(tmp_path)
    assert main(["synth", "--config", str(config), "--jobs", "0"]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err


def test_invalid_nested_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"certain": 99}}))
    assert main(["synth", "--config", str(path)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "absent.json")]) == 3


def test_flag_overrides(tmp_path):
    config, out = tiny_config(tmp_path)
    other = tmp_path / "other"
    assert main(["synth", "--config", str(config), "--out", str(other), "--seed", "9"]) == 0
    manifest = json.loads((other / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["config"]["out_dir"] == str(other)


def test_bad_certain_flag(tmp_path, capsys):
    config, _ = tiny_config(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["pretrain", "--config", str(config), "--certain", "7"])
    assert excinfo.value.code == 2
