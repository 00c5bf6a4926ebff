"""Smoke test of the end-to-end benchmark at tiny sizes (a few seconds).

Checks the contract (`BENCHMARK.json` names the workloads the code builds,
and a run reports every metric it lists), that every workload's output
matches its reference with tracing on and off, that the trace explains the
pass, and that a corrupted ndjson is caught.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
sys.path.insert(0, str(BENCH_DIR))

import e2e_inputs  # noqa: E402
import e2e_measure  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCALE = 0.25


@pytest.fixture(scope="module")
def contract():
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_contract_is_well_formed(contract):
    assert [entry["name"] for entry in contract["workloads"]] == list(e2e_inputs.WORKLOADS)
    for entry in contract["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in contract[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert all(0 < entry["bound"] <= 0.25 for entry in contract["end_to_end"])
    assert contract["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", list(e2e_inputs.WORKLOADS))
def test_workload_is_correct_and_explained(name, contract, tmp_path):
    manifest = e2e_inputs.build_workload(name, 11, str(tmp_path), SCALE)
    result = e2e_measure.measure(manifest, contract, seconds=0.0, trace=True, min_passes=1)

    assert result["failed_flows_share"] == 0
    assert result["output_stable"], "traced and untraced passes wrote different ndjson"
    driver = result["driver"]
    assert driver["correct"] and driver["failed"] == 0 and driver["attempted"] >= 1
    assert set(driver["metrics"]) == set(e2e_measure.units(contract, "per_layer"))
    assert driver["metrics"]["trace.coverage_share"]["value"] >= 0.95
    assert driver["metrics"]["backend.scan_bytes"]["value"] > 0
    for metric in e2e_measure.units(contract, "end_to_end"):
        assert result["summary"][metric]["median"] > 0, metric
    if manifest["planted_pairs"]:
        assert manifest["reference_records"] >= manifest["planted_pairs"]


def test_corrupted_ndjson_fails_flows(tmp_path):
    manifest = e2e_inputs.build_workload("hit_heavy_confirm", 11, str(tmp_path), SCALE)
    session = e2e_measure.open_session(manifest)
    try:
        e2e_measure.run_pass(session, manifest)
    finally:
        session.close()
    assert e2e_measure.check_output(manifest)[0] == 0

    sink = pathlib.Path(manifest["sink"])
    lines = sink.read_text(encoding="utf-8").splitlines()
    sink.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")  # one alert lost
    assert e2e_measure.check_output(manifest)[0] >= 1

    sink.write_text(lines[0][:-5] + "\n", encoding="utf-8")  # truncated record
    assert e2e_measure.check_output(manifest)[0] == manifest["flows"]


def test_same_seed_same_bytes(tmp_path):
    def build(name, seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        manifest = e2e_inputs.build_workload(name, seed, str(workdir), SCALE)
        return manifest["sha256"], (workdir / "traffic.pcap").read_bytes()

    first, dense_pcap = build("benign_bulk_dense", 5, "a")
    again, _ = build("benign_bulk_dense", 5, "b")
    other, _ = build("benign_bulk_dense", 6, "c")
    assert first == again
    assert first["pcap"] != other["pcap"] and first["rules"] != other["rules"]
    dtp, dtp_pcap = build("benign_bulk_dtp", 5, "d")
    assert dtp["rules"] == first["rules"]
    assert dense_pcap.startswith(dtp_pcap)


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare)
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "benign_bulk_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
