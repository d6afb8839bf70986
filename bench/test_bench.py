"""Tests of the benchmark's own logic: self time, output checks, tracing.

    python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, instrument, outermost, self_times  # noqa: E402


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_direct_children_only():
    # 0 [0, 10] -> 1 [1, 4] -> 2 [2, 3]; 0 -> 3 [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # children [1, 5] and [3, 7] cover [1, 7]; child [8, 12] is clipped to [8, 10]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_self_time_counts_only_masked_children():
    start = [0.0, 1.0, 5.0]
    end = [10.0, 4.0, 6.0]
    parent = [-1, 0, 0]
    own = self_times(start, end, parent, counted=[False, True, False])
    assert own[0] == pytest.approx(7.0)


def test_outermost_counts_nested_group_members_once():
    # 0 member -> 1 other -> 2 member; 3 member at top level
    parent = [-1, 0, 1, -1]
    member = [True, False, True, True]
    assert outermost(parent, member).tolist() == [True, False, False, True]


# ---------------------------------------------------------------------------
# output checks


def _summary():
    return {
        "artifacts": 13,
        "manifest_matches_files": True,
        "checksums_match_weights": True,
        "mean_r2": 0.25,
        "averaged": {rep: {"accuracy": 0.6, "auroc": 0.7} for rep in checks.REPRESENTATIONS},
        "weights": {"LDL": [40.0, 5.0], "UA": [30.0, 4.0]},
    }


def _reference():
    found = _summary()
    return {key: found[key] for key in ("mean_r2", "averaged", "weights")}


def test_compare_accepts_reference_and_drift_within_tolerance():
    found = _summary()
    assert checks.compare(found, _reference(), 13) == []
    found["mean_r2"] += 0.5 * checks.TOLERANCE["abs"]
    found["weights"]["LDL"][1] *= 1.0 + 0.5 * checks.TOLERANCE["rel"]
    assert checks.compare(found, _reference(), 13) == []


@pytest.mark.parametrize(
    "change, expected",
    [
        (lambda s: s.update(artifacts=12), "artifacts"),
        (lambda s: s.update(manifest_matches_files=False), "manifest"),
        (lambda s: s.update(checksums_match_weights=False), "checksums"),
        (lambda s: s.update(mean_r2=0.26), "R^2"),
        (lambda s: s["averaged"]["out"].update(auroc=0.71), "auroc"),
        (lambda s: s["weights"]["UA"].__setitem__(0, 30.001), "weights_UA"),
        (lambda s: s["weights"].__setitem__("UA", []), "weights_UA"),
        (lambda s: s["weights"].pop("UA"), "weight files"),
    ],
)
def test_compare_reports_each_kind_of_mismatch(change, expected):
    found = _summary()
    change(found)
    problems = checks.compare(found, _reference(), 13)
    assert len(problems) == 1 and expected in problems[0]


def test_compare_without_reference_runs_reference_free_checks():
    found = _summary()
    assert checks.compare(found, None, 13) == []
    found["checksums_match_weights"] = False
    assert checks.compare(found, None, 13) != []


def test_compare_counts_is_exact():
    reference = {"series.linear": 12, "failed.barycentric": 2}
    assert checks.compare_counts(dict(reference), reference) == []
    assert checks.compare_counts({"series.linear": 12, "failed.barycentric": 3}, reference)
    assert checks.compare_counts({"series.linear": 12}, reference)


def test_ingest_fails_a_pass_on_a_failed_count_check(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "INGEST_PATIENTS", 26)
    ingest = workloads.Ingest(tmp_path, 0, None)
    good = ingest.op()
    bad = workloads.Ingest(tmp_path, 0, dict(good.summary, patients=27)).op()
    assert good.problems == [] and bad.problems
    assert (good.attempted, good.failed) == (1, 0) and (bad.attempted, bad.failed) == (1, 1)
    series_failed = good.layer_counts["framing.failed"]
    assert series_failed == bad.layer_counts["framing.failed"] > 0
    [line] = ingest.defects([good, bad])
    assert line.startswith(f"open defect: {2 * series_failed}/{2 * 26 * 6 * 3} = ")


def test_summary_of_a_real_run_detects_a_tampered_weight_file(tmp_path):
    from glp.cli import main

    config = {
        "seed": 3,
        "out_dir": str(tmp_path / "run"),
        "pretext": {"n_patients": 26},
        "train": {"epochs": 1, "folds": 2, "certain": 1},
        "downstream": {"n_positive": 8, "n_negative": 24},
        "transfer": {"repetitions": 2},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["all", "--config", str(path)]) == 0
    found = checks.summary(tmp_path / "run")
    assert checks.compare(found, None, 13) == []
    reference = {key: found[key] for key in ("mean_r2", "averaged", "weights")}
    assert checks.compare(found, reference, 13) == []

    weight_file = tmp_path / "run" / "weights_LDL.glp"
    blob = bytearray(weight_file.read_bytes())
    blob[8 + 7] ^= 0x40  # an exponent bit of the first weight
    weight_file.write_bytes(bytes(blob))
    problems = checks.compare(checks.summary(tmp_path / "run"), reference, 13)
    assert any("manifest" in p for p in problems)
    assert any("checksums" in p for p in problems)
    assert any("weights_LDL" in p for p in problems)


# ---------------------------------------------------------------------------
# tracing


def test_traced_ingest_counts_every_series_and_restores_the_program(tmp_path):
    import glp.framing
    import glp.netcore

    originals = (glp.framing.encode_frame, glp.netcore.libc_forward)
    tracer = Tracer()
    with instrument(tracer):
        counts, clock = workloads.ingest(tmp_path, variant=0, n_patients=26)
    assert 0 < clock.wall and 0 < clock.cpu
    assert (glp.framing.encode_frame, glp.netcore.libc_forward) == originals

    metrics = layers.per_layer(tracer, [1.0], [1.0], [1.0])
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["interp.series"] == sum(counts[f"series.{m}"] for m in layers.METHODS)
    assert metrics["framing.frames"] == sum(
        counts[f"stage1.{m}"] + counts[f"stage2.{m}"] for m in layers.METHODS
    )
    assert metrics["cohort.rows_read"] == counts["pretext_rows_read"] + counts["episodic_records"]

    arrays = tracer.arrays()
    names = np.array(tracer.names)[arrays["name_id"]]
    encode = names == "encoding.encode"
    assert encode.any()
    assert set(names[arrays["parent"][encode]]) <= {"framing.stage1", "framing.stage2"}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
