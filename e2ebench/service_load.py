"""The ``service-process`` workload: a closed loop against a live service.

An in-process :class:`~repro.service.app.RetimingService` runs with
``isolation="process"``, ``pool=2`` and its production defaults
otherwise, the analysis cache included, over a fresh root directory per
pass.  Two clients (one per core) each submit their next job only after
the previous result arrived, as the service's waiting callers do.  A job's
latency runs from the start of its ``POST /jobs`` to the response that
carries its result.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from . import speed
from .batch import GateError
from .metrics import another_pass, median, peak_rss_mb, tail

CLIENTS = 2
POOL = 2
#: Seconds between result polls of one client: the cadence of the
#: repository's own service client (benchmarks/bench_observability.py).
#: A faster one adds client requests that share the cores with the service.
POLL_INTERVAL = 0.05
#: A job not done within this many seconds fails the run.
JOB_TIMEOUT = 120.0
#: Passes a timed run makes at least: 24 latencies put the tail at the
#: 58th percentile; one pass's 12 would put it at the 17th.
MIN_PASSES = 2


def _request(endpoint: dict[str, Any], method: str, path: str,
             body: dict[str, Any] | None = None) -> tuple[int, Any]:
    conn = http.client.HTTPConnection(endpoint["host"], endpoint["port"],
                                      timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        conn.request(method, path, body=data,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


@dataclass
class Service:
    service: Any
    thread: threading.Thread
    endpoint: dict[str, Any]
    startup_s: float

    def stop(self) -> None:
        self.service.initiate_drain("benchmark pass done")
        self.thread.join(60.0)
        if self.thread.is_alive():
            raise RuntimeError("service did not drain within 60 s")


def start_service(root: str, trace_path: str | None = None) -> Service:
    """Start a service and wait until ``/readyz`` answers 200."""
    from repro.service.app import (RetimingService, ServiceConfig,
                                   read_endpoint)

    t0 = time.perf_counter()
    service = RetimingService(ServiceConfig(
        root=root, isolation="process", pool=POOL, trace_path=trace_path))
    thread = threading.Thread(target=service.serve, name="service",
                              daemon=True)
    thread.start()
    endpoint = read_endpoint(root, timeout=30.0)
    deadline = time.monotonic() + 30.0
    while _request(endpoint, "GET", "/readyz")[0] != 200:
        if time.monotonic() > deadline:
            raise RuntimeError("service never became ready")
        time.sleep(0.01)
    return Service(service, thread, endpoint, time.perf_counter() - t0)


@dataclass
class Job:
    spec: dict[str, Any]
    latency: float = 0.0
    post_s: float = 0.0
    polls: int = 0
    job_id: str = ""
    state: str = ""
    result: dict[str, Any] | None = None
    record: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.state == "done" and self.result is not None and \
            self.result.get("status") == "ok"


def _client(endpoint: dict[str, Any], pending: list[Job],
            lock: threading.Lock, errors: list[str]) -> None:
    while True:
        with lock:
            if not pending:
                return
            job = pending.pop(0)
        t0 = time.perf_counter()
        status, body = _request(endpoint, "POST", "/jobs", job.spec)
        job.post_s = time.perf_counter() - t0
        if status != 202:
            job.state = f"rejected:{status}"
            errors.append(f"{job.spec['name']}: POST answered {status}")
            continue
        job.job_id = body["job"]["id"]
        while True:
            status, body = _request(endpoint, "GET",
                                    f"/jobs/{job.job_id}/result")
            job.polls += 1
            if status == 200:
                break
            if status != 409 or time.perf_counter() - t0 > JOB_TIMEOUT:
                errors.append(f"{job.job_id}: result poll answered {status}")
                break
            time.sleep(POLL_INTERVAL)
        job.latency = time.perf_counter() - t0
        job.state = body.get("state", "unknown") if status == 200 else \
            f"poll:{status}"
        job.result = body.get("result") if status == 200 else None


@dataclass
class ServicePass:
    wall: float
    jobs: list[Job]
    errors: list[str] = field(default_factory=list)
    spans: dict[str, float] = field(default_factory=dict)

    @property
    def digests(self) -> list[str | None]:
        return [job.result.get("digest") if job.result else None
                for job in self.jobs]


def run_pass(specs: list[dict[str, Any]], root: str,
             trace_path: str | None = None) -> ServicePass:
    """Serve one pass of jobs through a fresh service, then drain it."""
    if os.path.exists(root):
        shutil.rmtree(root)
    svc = start_service(root, trace_path)
    jobs = [Job(spec) for spec in specs]
    errors: list[str] = []
    try:
        pending = list(jobs)
        lock = threading.Lock()
        clients = [threading.Thread(target=_client,
                                    args=(svc.endpoint, pending, lock,
                                          errors))
                   for _ in range(CLIENTS)]
        t0 = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        wall = time.perf_counter() - t0
        for job in jobs:
            if job.job_id:
                status, body = _request(svc.endpoint, "GET",
                                        f"/jobs/{job.job_id}")
                job.record = body.get("job", {}) if status == 200 else {}
    finally:
        svc.stop()
    out = ServicePass(wall=wall, jobs=jobs, errors=errors)
    if trace_path is not None:
        out.spans = lifecycle_spans(trace_path, len(jobs))
    return out


def lifecycle_spans(trace_path: str, n_jobs: int) -> dict[str, float]:
    """Mean seconds per job of the service's own lifecycle spans."""
    totals = {"queue.wait": 0.0, "job.sandbox": 0.0, "job.persist": 0.0}
    with open(trace_path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") == "span" and record["name"] in totals:
                totals[record["name"]] += float(record["dur"])
    return {name: total / n_jobs for name, total in totals.items()}


def reference_digests(specs: list[dict[str, Any]]) -> list[str]:
    """Each spec's digest from :func:`execute_job` run in this process."""
    from repro.runtime.suite import clear_obs_cache
    from repro.service.workers import ExecutionDefaults, execute_job

    digests = []
    for spec in specs:
        clear_obs_cache()
        digests.append(execute_job(spec, ExecutionDefaults())["digest"])
    return digests


def cache_hits(job: Job) -> int:
    """Analysis-cache hits served from the shared disk tier.

    Every sandboxed job starts with an empty memory tier, so a result of
    an earlier job can only arrive through the disk tier.  Hits in the
    memory tier are the job reusing its own work (a cold small-tier job
    has three) and are not counted.
    """
    record = (job.result or {}).get("record") or {}
    perf = (record.get("report") or {}).get("perf") or {}
    counters = perf.get("cache", {})
    return int(counters.get("hits", 0)) - int(counters.get("memory_hits", 0))


def gate(passes: list[ServicePass], references: list[str]) -> None:
    for index, one in enumerate(passes):
        if one.errors:
            raise GateError(f"pass {index}: " + "; ".join(one.errors))
        for job, digest, want in zip(one.jobs, one.digests, references):
            if digest != want:
                raise GateError(
                    f"pass {index}: job {job.spec['name']} (seed "
                    f"{job.spec['seed']}) digest {digest} != in-process "
                    f"execute_job {want}")
        hits = sum(cache_hits(job) for job in one.jobs)
        if hits:
            raise GateError(f"pass {index}: {hits} analysis-cache hits; "
                            f"every job must run cold")


def run_service(specs: list[dict[str, Any]], work: str, seconds: float,
                trace: bool, setup: dict[str, float]) -> dict[str, Any]:
    """Measure the service; every pass serves the same specs on a fresh
    root, so one set of in-process references checks them all."""
    yardstick = speed.sample()
    passes = [run_pass(specs, os.path.join(work, "root-0"))]
    yardstick += speed.sample()
    if trace:
        passes.append(run_pass(specs, os.path.join(work, "root-1"),
                               trace_path=os.path.join(work, "trace.jsonl")))
        yardstick += speed.sample()
    else:
        while len(passes) < MIN_PASSES or \
                another_pass([p.wall for p in passes], seconds):
            passes.append(run_pass(specs, os.path.join(
                work, f"root-{len(passes)}")))
            yardstick += speed.sample()
    # Read before the in-process references, so the figure is the
    # service's and its sandboxes', not the checker's.
    rss = peak_rss_mb()
    references = reference_digests(specs)
    gate(passes, references)
    jobs = [job for one in passes for job in one.jobs]
    attempted = len(jobs)
    failed = sum(not job.ok for job in jobs)
    latencies = [job.latency for job in jobs]
    tail_value, tail_pct, samples = tail(latencies)
    summary = {"passes": len(passes), "job_tail": {"percentile": tail_pct,
                                                   "samples": samples}}
    if not trace:
        metrics = {
            "wall_s": median([p.wall for p in passes]),
            "jobs_per_s": median([sum(j.ok for j in p.jobs) / p.wall
                                  for p in passes]),
            "job_p50_s": median(latencies),
            "job_tail_s": tail_value,
            "peak_rss_mb": rss,
        }
        return {"attempted": attempted, "failed": failed,
                "metrics": metrics, "yardstick": yardstick,
                "summary": summary}
    untraced, traced = passes
    execs = [float(((job.result or {}).get("record") or {})
                   .get("elapsed", 0.0)) for job in traced.jobs]
    metrics = {
        "service.post_s": statistics.fmean(j.post_s for j in traced.jobs),
        "service.polls_per_job": statistics.fmean(j.polls
                                                  for j in traced.jobs),
        "service.exec_s": statistics.fmean(execs),
        "service.outside_s": statistics.fmean(
            j.latency - e for j, e in zip(traced.jobs, execs)),
        "service.queue_wait_s": traced.spans["queue.wait"],
        "service.sandbox_s": traced.spans["job.sandbox"],
        "service.persist_s": traced.spans["job.persist"],
        "service.requeues": sum(j.record.get("requeues", 0)
                                for j in traced.jobs),
        "service.crashes": sum(j.record.get("crashes", 0)
                               for j in traced.jobs),
        "cache.hits": sum(cache_hits(j) for j in traced.jobs),
        "netlist.parse_s": setup["parse_s"],
        "corpus.generate_s": setup["generate_s"],
        "failed_share": failed / attempted,
        "job_tail.percentile": tail_pct,
        "job_tail.samples": samples,
        "trace.wall_s": traced.wall,
        "trace.overhead_share": traced.wall / untraced.wall - 1.0,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "yardstick": yardstick, "summary": summary}
