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
