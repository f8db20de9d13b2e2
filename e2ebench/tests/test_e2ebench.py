"""Self-tests of the end-to-end benchmark.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest e2ebench/tests -q

They use ``--tiny`` inputs (two small circuits per workload), so the whole
file takes about a minute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from e2ebench import batch, inputs, run, service_load, speed
from e2ebench.batch import GateError
from e2ebench.metrics import END_TO_END, PER_LAYER, tail

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join("e2ebench", "run.py")
WORKLOADS = ("table1", "corpus-small", "solver-deep", "service-process")
#: The workloads BENCHMARK.json lists.  ``corpus-small`` stays runnable by
#: hand; see "Steadiness and bounds" in e2ebench/README.md.
BENCHMARKED = ("table1", "solver-deep", "service-process")


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["e2ebench"]
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    catalogue = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        dict(catalogue)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _flip(digest: str) -> str:
    return digest[:-1] + ("0" if digest[-1] != "0" else "1")


def _run_with_flipped_row(monkeypatch, capsys, workload: str, row: str,
                          seed: str) -> tuple[int, str]:
    """Run ``workload`` in-process against committed rows with one digest
    flipped; returns the exit code and standard error."""
    original = run.expected_rows

    def flipped(name: str, tiny: bool) -> dict:
        rows = json.loads(json.dumps(original(name, tiny)))
        rows[row]["digest"] = _flip(rows[row]["digest"])
        return rows

    monkeypatch.setattr(run, "expected_rows", flipped)
    # main() points temporary files into its work directory.
    monkeypatch.setattr(tempfile, "tempdir", tempfile.gettempdir())
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    code = run.main(["--workload", workload, "--seed", seed, "--seconds",
                     "1", "--trace", "0", "--tiny"])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    return code, err


def test_flipped_golden_digest_fails_the_run(monkeypatch, capsys):
    code, err = _run_with_flipped_row(monkeypatch, capsys, "corpus-small",
                                      inputs.TINY_CORPUS[0], "0")
    assert code == 1
    assert "digest" in err


def test_flipped_expected_digest_fails_the_run(monkeypatch, capsys):
    code, err = _run_with_flipped_row(monkeypatch, capsys, "table1",
                                      inputs.TINY_TABLE1_ROWS[0], "3")
    assert code == 1
    assert "digest" in err


def test_guard_recheck_rejects_a_tampered_retiming():
    batch_inputs = inputs.BATCH_INPUTS["table1"](0, True)
    one = batch.run_pass(batch_inputs)
    assert batch.guard_problems(one, batch_inputs.config) == []
    # Report the original circuit for a retiming that moved the register
    # count: the guard must reject it.
    run_ = next(r for r in one.suite.runs
                if any(o.registers != one.circuits[r.name].n_dffs
                       for o in r.result.outcomes.values()))
    for outcome in run_.result.outcomes.values():
        outcome.circuit = one.circuits[run_.name]
    problems = batch.guard_problems(one, batch_inputs.config)
    assert problems and "registers" in problems[0]


def _service_pass(digest: str, disk_hits: int = 0):
    perf = {"cache": {"hits": 3 + disk_hits, "memory_hits": 3}}
    job = service_load.Job(spec={"name": "pipe_a", "seed": 0}, state="done",
                           result={"status": "ok", "digest": digest,
                                   "record": {"report": {"perf": perf}}})
    return service_load.ServicePass(wall=1.0, jobs=[job])


def test_flipped_job_digest_fails_the_service_gate():
    good = "sha256:" + "ab" * 32
    service_load.gate([_service_pass(good)], [good])
    with pytest.raises(GateError, match="digest"):
        service_load.gate([_service_pass(_flip(good))], [good])


def test_cross_job_cache_hit_fails_the_service_gate():
    good = "sha256:" + "ab" * 32
    with pytest.raises(GateError, match="cache"):
        service_load.gate([_service_pass(good, disk_hits=1)], [good])


def inputs_digest(workload: str, seed: int) -> str:
    """sha256 over everything a workload hands the program for ``seed``."""
    from repro.netlist.bench_format import dumps_bench

    h = hashlib.sha256()
    if workload == "service-process":
        for job in inputs.service_jobs(seed, inputs.service_circuits(True)):
            h.update(json.dumps(job, sort_keys=True).encode())
        return h.hexdigest()
    batch = inputs.BATCH_INPUTS[workload](seed, True)
    h.update(json.dumps(dataclasses.asdict(batch.config),
                        sort_keys=True).encode())
    for name, circuit in sorted(batch.build().items()):
        h.update(name.encode() + dumps_bench(circuit).encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_determines_inputs(workload):
    assert inputs_digest(workload, 5) == inputs_digest(workload, 5)
    assert inputs_digest(workload, 5) != inputs_digest(workload, 6)


def test_renaming_keeps_structure():
    circuit = inputs.service_circuits(tiny=True)["pipe_a"]
    copy = inputs.renamed(circuit, "s9_")
    assert copy.stats() == circuit.stats()
    assert copy.fingerprint() != circuit.fingerprint()
    assert all(net.startswith("s9_") for net in copy.nets)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    assert tail(values) == (30.0, 75.0, 40)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_speed_scaling_moves_times_and_rates_only():
    values = {"wall_s": 10.0, "jobs_per_s": 2.0, "core.s_per_iter": 1.0,
              "peak_rss_mb": 100.0, "core.iterations.minobs": 7.0}
    units = {"wall_s": "s", "jobs_per_s": "1/s", "core.s_per_iter": "s/iter",
             "peak_rss_mb": "MiB", "core.iterations.minobs": "count"}
    assert speed.scale(values, units, 0.5) == {
        "wall_s": 5.0, "jobs_per_s": 4.0, "core.s_per_iter": 0.5,
        "peak_rss_mb": 100.0, "core.iterations.minobs": 7.0}
    assert len(speed.sample()) == speed.REPEATS


def test_fails_without_program_source(tmp_path):
    """A checkout holding only the benchmark must fail without a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "e2ebench"), tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "table1", "--seed", "0", "--seconds", "1",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
