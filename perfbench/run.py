"""The repo's benchmark: ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0|1`` from the root of a checkout.

Workloads (README.md says why each exists):

* ``grid_cold``  — the 48-cell grid, serial, one fresh interpreter per pass;
* ``grid_warm``  — the same grid repeated in one process, caches filled;
* ``sweep_cold`` — ``grid_cold`` through the process-pool sweep executor;
* ``serve_open`` — ``graphbench serve`` under a seeded open-loop client.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ledger; ``--workload all`` runs every
workload both ways.  Every output is checked: grid
records against a reference run without the trace cache, served
answers against ``Runner.run``.  The last stdout line is the JSON
result; the exit code is 1 when any output was wrong, 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import itertools
import json
import os
import platform
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import typing as _t
from importlib import metadata
from pathlib import Path

import ledger
import stats
from child import ALGORITHMS, DATASETS, PLATFORMS

ROOT = Path.cwd()
CHILD = Path(__file__).resolve().parent / "child.py"
STATE = ROOT / ".bench_build" / "perfbench"

#: a request or cell answered later than this missed its limit
#: (SERVE_WARM_P99_CEILING in scripts/perf_gate.py)
LATENCY_LIMIT_S = 0.25
#: open-loop arrival rate and the share of never-seen variant cells
SERVE_RATE = 50.0
SERVE_VARIANT_SHARE = 0.06
#: separately started programs per run, so setup_s is a median
SEGMENTS = 3
CLIENT_TIMEOUT_S = 30.0
CELLS_PER_PASS = 48


class Run:
    """One invocation's settings and working directory."""

    def __init__(self, args: argparse.Namespace, master: Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.master = master
        self.dir = STATE / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        # the program's own on-disk writes start from the same state
        shutil.copytree(master / "datasets", self.dir / "datasets")
        self.env = pinned_env(self.dir / "datasets", self.dir / "tmp")
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def child(self, *argv: object, timeout: float) -> subprocess.CompletedProcess:
        return run_child(self.env, *argv, timeout=timeout)


def run_child(
    env: dict[str, str], *argv: object, timeout: float
) -> subprocess.CompletedProcess:
    """Run ``child.py argv`` to completion (killed and reaped on
    timeout, which reads as a failed run)."""
    cmd = [sys.executable, str(CHILD), *map(str, argv)]
    try:
        return subprocess.run(
            cmd, cwd=ROOT, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(
            cmd, -9, stderr=f"timed out after {timeout:g}s".encode()
        )


def pinned_env(cache_dir: Path, tmp_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        GRAPHBENCH_KERNELS="numpy",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(cache_dir),
        TMPDIR=str(tmp_dir),
    )
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- state shared by every run of one source tree -------------------------------

def source_key() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    digest.update(sys.version.encode())
    digest.update(metadata.version("numpy").encode())
    return digest.hexdigest()[:16]


def prepare_master() -> Path:
    """Synthesized datasets and the reference records for this source
    tree, made once, outside any measurement."""
    master = STATE / f"master-{source_key()}"
    if (master / "reference.json").is_file():
        return master
    staging = STATE / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    (staging / "tmp").mkdir(parents=True)
    env = pinned_env(staging / "datasets", staging / "tmp")
    for argv in (["synth"], ["reference", staging / "reference.json"]):
        proc = run_child(env, *argv, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(f"perfbench: {argv[0]} failed")
    shutil.rmtree(staging / "tmp")
    shutil.rmtree(master, ignore_errors=True)
    staging.rename(master)
    return master


# -- correctness ----------------------------------------------------------------

def _cells(doc: dict) -> dict[tuple, str]:
    return {
        (r["platform"], r["algorithm"], r["dataset"]):
            json.dumps(r, sort_keys=True)
        for r in doc["records"]
    }


def check_export(path: Path, reference: dict) -> set[tuple]:
    """Cells whose exported record differs from the reference run's
    (a pass submits cells in its own seeded order, so records are
    matched by cell; values compare exactly)."""
    expected = _cells(reference)
    try:
        doc = json.loads(path.read_text())
        got = _cells(doc)
    except (OSError, ValueError, KeyError, TypeError):
        return set(expected)
    bad = {key for key in expected if got.get(key) != expected[key]}
    if doc.get("experiment") != reference["experiment"] or set(got) - set(expected):
        bad |= set(expected)
    return bad


# -- grid workloads ---------------------------------------------------------------

def grid_e2e(
    setups: list[float], passes: list[dict], rss: float
) -> dict[str, float]:
    """End-to-end metrics of untraced grid passes.  A grid's "request"
    is one cell, timed by the runner itself (``JobResult``'s wall)."""
    walls = [p["wall"] for p in passes]
    cell_walls = [w for p in passes for w in p["cell_walls"].values()]
    return {
        "setup_s": stats.median(setups),
        "cells_per_s": stats.rate([p["cells"] for p in passes], walls),
        "peak_rss_mb": rss,
        "req_p50_ms": _ms(stats.percentile(cell_walls, 0.5)),
        "goodput_rps": sum(p["good"] for p in passes) / sum(walls),
    }


def _ms(value: float | None) -> float:
    return 0.0 if value is None else value * 1e3


def good_cells(cell_walls: dict[str, float], bad: set[tuple]) -> int:
    """Correct cells answered within the latency limit."""
    return sum(
        1 for key, wall in cell_walls.items()
        if wall <= LATENCY_LIMIT_S and tuple(key.split("/")) not in bad
    )


def run_cold(run: Run, reference: dict, workers: int) -> tuple[dict, dict]:
    """Cold passes, each in a fresh interpreter; traced runs alternate
    untraced and traced passes."""
    setups, untraced, traced = [], [], []
    rss = 0.0
    deadline = time.monotonic() + run.seconds
    index = 0
    # past the deadline, keep going only until both kinds of pass have
    # succeeded once, and give up after a few crashed attempts
    while time.monotonic() < deadline or (
        (not untraced or (run.trace and not traced)) and index < 4
    ):
        is_traced = run.trace and index % 2 == 1
        out = run.dir / f"pass-{index}.json"
        export = run.dir / f"export-{index}.json"
        spawned = time.monotonic()
        proc = run.child(
            "cold", "--workers", workers, "--seed", run.seed,
            "--out", out, "--export", export, "--trace", int(is_traced),
            timeout=150,
        )
        index += 1
        run.attempted += CELLS_PER_PASS
        if proc.returncode != 0:
            run.failed += CELLS_PER_PASS
            run.notes.append(proc.stderr.decode(errors="replace")[-2000:])
            continue
        data = json.loads(out.read_text())
        bad = check_export(export, reference)
        export.unlink()
        run.failed += len(bad)
        if is_traced:
            traced.append(data)
            continue
        setups.append(data["loaded_at"] - spawned)
        rss = max(rss, data["rss_mb"])
        data["good"] = good_cells(data["cell_walls"], bad)
        untraced.append(data)
    if not untraced:
        return {}, {}
    e2e = grid_e2e(setups, untraced, rss)
    layers = {}
    if traced:
        per_pass = [pass_layers(p) for p in traced]
        layers = {k: stats.median([d[k] for d in per_pass]) for k in per_pass[0]}
        layers["ledger.tracing_overhead"] = overhead(
            [p["wall"] for p in traced], [p["wall"] for p in untraced]
        )
    return e2e, layers


def pass_layers(data: dict, units: float = 1.0) -> dict[str, float]:
    samples = ledger.Samples(data["prometheus"])
    out = ledger.layer_metrics(samples, units)
    out["trace_cache.bytes"] = data["trace_bytes"]
    out["platforms.step_memo_hit_ratio"] = data["step_memo_hit_ratio"]
    # inside the pool, work is the workers' busy time, not pool wall
    pool_wall = samples.hist_sum("sweep.pool_wall_seconds")
    busy = samples.get("sweep.worker_busy_seconds")
    covered = data["covered_wall"] - pool_wall + busy
    out["ledger.unattributed_share"] = ledger.unattributed_share(
        [ledger.total_self_seconds(samples)], covered
    )
    return out


def overhead(traced: list[float], untraced: list[float]) -> float:
    return stats.median(traced) / stats.median(untraced) - 1.0


def run_warm(run: Run, reference: dict) -> tuple[dict, dict]:
    """Warm passes in a few separately started processes; each fills
    its caches during set-up.  Traced runs alternate untraced and
    traced passes inside each process."""
    setups, untraced, traced_walls, per_segment = [], [], [], []
    rss = 0.0
    for segment in range(SEGMENTS):
        out = run.dir / f"warm-{segment}.json"
        export = run.dir / f"warm-export-{segment}.json"
        spawned = time.monotonic()
        proc = run.child(
            "warm", "--seed", run.seed, "--seconds", run.seconds / SEGMENTS,
            "--out", out, "--export", export, "--trace", int(run.trace),
            timeout=run.seconds + 150,
        )
        if proc.returncode != 0:
            run.attempted += CELLS_PER_PASS
            run.failed += CELLS_PER_PASS
            run.notes.append(proc.stderr.decode(errors="replace")[-2000:])
            continue
        data = json.loads(out.read_text())
        setups.append(data["setup_at"] - spawned)
        rss = max(rss, data["rss_mb"])
        # the export file holds the last pass; every other pass must
        # have written the same bytes
        bad = check_export(export, reference)
        last_sha = hashlib.sha256(export.read_bytes()).hexdigest()
        for p in data["passes"]:
            pass_bad = bad if p["sha"] == last_sha else set(p["cell_walls"])
            run.attempted += p["cells"]
            run.failed += len(pass_bad)
            if p["traced"]:
                traced_walls.append(p["wall"])
            else:
                p["good"] = good_cells(p["cell_walls"], pass_bad)
                untraced.append(p)
        if run.trace:
            n = sum(1 for p in data["passes"] if p["traced"])
            data["covered_wall"] = sum(
                p["wall"] for p in data["passes"] if p["traced"]
            )
            per_segment.append(pass_layers(data, units=n))
    if not untraced:
        return {}, {}
    e2e = grid_e2e(setups, untraced, rss)
    layers = {}
    if per_segment:
        layers = {
            k: stats.median([d[k] for d in per_segment]) for k in per_segment[0]
        }
        layers["ledger.tracing_overhead"] = overhead(
            traced_walls, [p["wall"] for p in untraced]
        )
    return e2e, layers


# -- serve workload -----------------------------------------------------------------

HOT_DATASETS = ("amazon", "kgs")


def hot_set() -> list[dict]:
    return [
        {"platform": p, "algorithm": a, "dataset": d}
        for d in HOT_DATASETS for a in ALGORITHMS for p in PLATFORMS
    ]


def variants() -> _t.Iterator[dict]:
    """Never-seen cells in rounds of 12: every (platform, algorithm)
    pair once per round, datasets rotated so each appears 3 times a
    round.  Cluster shapes and order are fixed, because the server's
    peak memory depends on both (``num_workers * cores_per_worker``
    sizes giraph's model, and the order decides what is cached when
    the largest arrays are built); the seed places them in the
    schedule.  Within 38 cells no (dataset, ``num_workers``) pair
    repeats, so every graphlab variant builds a new LDG partition."""
    pairs = [(p, a) for p in PLATFORMS for a in ALGORITHMS]
    worker_counts = [n for n in range(2, 41) if n != 20]
    for k in itertools.count():
        r, i = divmod(k, len(pairs))
        platform_, algorithm = pairs[i]
        yield {
            "platform": platform_, "algorithm": algorithm,
            "dataset": DATASETS[(r + i) % len(DATASETS)],
            "num_workers": worker_counts[k * 7 % len(worker_counts)],
            "cores_per_worker": 1 + k % 4,
        }


def schedule(seed: str, seconds: float) -> list[tuple[float, dict]]:
    """(due offset in seconds, request) at a fixed rate.  In every block
    of one second, a fixed share of requests at seeded positions are
    never-seen variants; the rest go to the hot set."""
    rng = random.Random(seed)
    hot = hot_set()
    misses = variants()
    total = int(seconds * SERVE_RATE)
    out = []
    for start in range(0, total, int(SERVE_RATE)):
        size = min(int(SERVE_RATE), total - start)
        picks = set(rng.sample(range(size), round(size * SERVE_VARIANT_SHARE)))
        for j in range(size):
            cell = next(misses) if j in picks else rng.choice(hot)
            out.append(((start + j) / SERVE_RATE, cell))
    return out


async def post(port: int, body: bytes, path: str = "/v1/predict",
               method: str = "POST") -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), payload


async def open_loop(
    port: int, requests: list[tuple[float, dict]]
) -> tuple[list[tuple], list[float], float]:
    """Send each request when it is due, over at most ``nproc``
    connections; latency runs from the due time to the last byte.
    Returns ((status, body, latency) per request, generator lateness,
    wall from the first due time to the last byte)."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(nproc())
    results: list[tuple] = [None] * len(requests)  # type: ignore[list-item]
    lags: list[float] = []

    async def one(i: int, due: float, body: bytes) -> None:
        try:
            async with slots:
                status, payload = await asyncio.wait_for(
                    post(port, body), CLIENT_TIMEOUT_S
                )
        except (OSError, asyncio.TimeoutError, ValueError, IndexError) as exc:
            status, payload = 0, repr(exc).encode()
        results[i] = (status, payload, loop.time() - due)

    bodies = [json.dumps(cell).encode() for _, cell in requests]
    start = loop.time() + 0.05
    tasks = []
    for i, (offset, _) in enumerate(requests):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(loop.time() - due)
        tasks.append(asyncio.create_task(one(i, due, bodies[i])))
    await asyncio.gather(*tasks)
    return results, lags, loop.time() - start


class Server:
    """``graphbench serve`` in its own process; the traced form is
    started through ``child.py serve`` so the ledger is installed."""

    def __init__(self, run: Run, traced: bool) -> None:
        args = ["serve", "--port", "0", "--workers", "1"]
        cmd = (
            [sys.executable, str(CHILD), *args] if traced
            else [sys.executable, "-m", "repro", *args]
        )
        self.started = time.monotonic()
        self.errors = open(run.dir / "server-stderr.txt", "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=run.env, stdout=subprocess.PIPE,
            stderr=self.errors,
        )
        self.port = 0
        # a server that hangs before printing its address is killed,
        # which ends the readline loop
        watchdog = threading.Timer(120, self.proc.kill)
        watchdog.start()
        try:
            for raw in iter(self.proc.stdout.readline, b""):
                match = re.search(rb"listening on http://[^:]+:(\d+)", raw)
                if match:
                    self.port = int(match.group(1))
                    break
        finally:
            watchdog.cancel()
        if not self.port:
            self.stop()
            raise RuntimeError("server did not start")

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.errors.close()


async def warm_up(port: int) -> None:
    deadline = time.monotonic() + 120
    while True:
        try:
            status, _ = await post(port, b"", "/healthz", "GET")
            if status == 200:
                break
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("server never became healthy")
        await asyncio.sleep(0.02)
    for cell in hot_set():
        status, payload = await post(port, json.dumps(cell).encode())
        if status != 200:
            raise RuntimeError(f"warm-up request failed: {status} {payload!r}")


async def scrape(port: int) -> tuple[ledger.Samples, dict]:
    _, text = await post(port, b"", "/metrics", "GET")
    _, health = await post(port, b"", "/healthz", "GET")
    return ledger.Samples(text.decode()), json.loads(health)


def expected_answers(cells: list[dict]) -> dict[str, str]:
    """``PredictResponse.from_record(Runner().run(spec))`` per distinct
    request, keyed by the request's canonical JSON."""
    from repro.api import PredictRequest, PredictResponse, canonical_json
    from repro.core import Runner

    runner = Runner()
    out = {}
    for cell in cells:
        key = canonical_json(cell)
        if key not in out:
            spec = PredictRequest.from_dict(cell).to_run_spec()
            out[key] = PredictResponse.from_record(runner.run(spec)).to_json()
    return out


def run_serve(run: Run) -> tuple[dict, dict]:
    segments = SEGMENTS + 1 if run.trace else SEGMENTS
    length = run.seconds / segments
    setups, rss, load_wall = [], 0.0, 0.0
    outcomes: list[tuple[dict, tuple, bool]] = []
    lags: list[float] = []
    per_segment_layers = []
    for segment in range(segments):
        # each server gets its own schedule, so each sees whole variant
        # rounds from its start
        part = schedule(f"{run.seed}/{segment}", length)
        traced = run.trace and segment % 2 == 1
        server = None
        try:
            server = Server(run, traced)
            asyncio.run(warm_up(server.port))
            setups.append(time.monotonic() - server.started)
            before = asyncio.run(scrape(server.port))[0] if traced else None
            results, part_lags, wall = asyncio.run(
                open_loop(server.port, part)
            )
            if not traced:
                load_wall += wall
            if traced:
                after, health = asyncio.run(scrape(server.port))
                per_segment_layers.append(
                    serve_layers(after.since(before), health, length)
                )
            rss = max(rss, server.vm_hwm_mb())
        except (RuntimeError, OSError) as exc:
            run.notes.append(f"segment {segment}: {exc}")
            results = [(0, b"", CLIENT_TIMEOUT_S)] * len(part)
            part_lags = []
            if not traced:
                load_wall += length
        finally:
            if server is not None:
                server.stop()
        lags.extend(part_lags)
        outcomes.extend((cell, res, traced) for (_, cell), res in zip(part, results))

    from repro.api import canonical_json

    expected = expected_answers([cell for cell, _, _ in outcomes])
    good = answered = 0
    latencies, hit_lat, miss_lat = [], [], []
    for cell, (status, payload, latency), traced in outcomes:
        run.attempted += 1
        ok = False
        if status == 200:
            envelope = json.loads(payload)
            ok = canonical_json(envelope["result"]) == expected[canonical_json(cell)]
            (hit_lat if envelope["cached"] else miss_lat).append(latency)
        if not ok:
            run.failed += 1
            latency = float("inf")
        if not traced:
            answered += ok
            good += ok and latency <= LATENCY_LIMIT_S
            latencies.append(latency)
    if not run.trace:
        run.notes.append(
            f"req_p99_ms {_ms(stats.percentile(latencies, 0.99)):.4f} "
            f"({len(latencies)} requests)"
        )
        return {
            "setup_s": stats.median(setups),
            "cells_per_s": answered / load_wall,
            "peak_rss_mb": rss,
            "req_p50_ms": _ms(stats.percentile(latencies, 0.5)),
            "goodput_rps": good / load_wall,
        }, {}
    layers = {}
    if per_segment_layers:
        layers = {
            k: stats.median([d[k] for d in per_segment_layers])
            for k in per_segment_layers[0]
        }
        p50 = {
            traced: stats.percentile(
                [r[2] for _, r, t in outcomes if t == traced], 0.5
            )
            for traced in (False, True)
        }
        if p50[False] and p50[True]:
            layers["ledger.tracing_overhead"] = p50[True] / p50[False] - 1.0
        layers["serve.hit_p99_ms"] = _ms(stats.percentile(hit_lat, 0.99))
        layers["serve.miss_p50_ms"] = _ms(stats.percentile(miss_lat, 0.5))
        layers["loadgen.lag_p99_ms"] = _ms(stats.percentile(lags, 0.99))
        layers["loadgen.req_p99_ms"] = _ms(stats.percentile(
            [r[2] for _, r, _ in outcomes], 0.99
        ))
    return {}, layers


def serve_layers(samples: ledger.Samples, health: dict, seconds: float) -> dict:
    out = ledger.layer_metrics(samples, seconds)
    out["trace_cache.bytes"] = health["trace_cache"]["trace_bytes"]
    out["platforms.step_memo_hit_ratio"] = 0.0
    hits = samples.get("serve.answer_cache_hits_total")
    misses = samples.get("serve.answer_cache_misses_total")
    out["serve.hit_ratio"] = ledger.ratio(hits, hits + misses)
    out["serve.coalesced"] = samples.get("serve.coalesced_total") / seconds
    out["serve.batch_size_mean"] = ledger.ratio(
        samples.hist_sum("serve.batch_size"),
        samples.hist_count("serve.batch_size"),
    )
    out["serve.pending_peak"] = samples.get("serve.pending_peak")
    # the ledger covers the batch executor plus request decode/encode
    covered = (
        samples.hist_sum("serve.batch_wall_seconds")
        + samples.get(ledger.self_counter("api.decode"))
        + samples.get(ledger.self_counter("api.encode"))
    )
    out["ledger.unattributed_share"] = ledger.unattributed_share(
        [ledger.total_self_seconds(samples)], covered
    )
    return out


# -- entry point ------------------------------------------------------------------

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    from repro.kernels import active_backend

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "kernels": active_backend(),
    }


def run_workload(run: Run) -> tuple[dict, dict]:
    reference = json.loads((run.master / "reference.json").read_text())
    if run.workload == "grid_cold":
        return run_cold(run, reference, workers=1)
    if run.workload == "sweep_cold":
        return run_cold(run, reference, workers=nproc())
    if run.workload == "grid_warm":
        return run_warm(run, reference)
    return run_serve(run)


def run_all(names: list[str], seed: int, seconds: float) -> int:
    """Every workload, untraced and then traced, each in its own run of
    this script.  The last line sums the operations and holds every
    metric as ``<workload>/<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}
            total["correct"] &= result["correct"] and proc.returncode == 0
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec() if (ROOT / "BENCHMARK.json").is_file() else None
    names = [w["name"] for w in spec["workloads"]] if spec else []
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for "
                        "every workload, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if spec is None or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout holding BENCHMARK.json and "
              "src/repro", file=sys.stderr)
        return 2
    if args.workload not in names + ["all"]:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds)

    master = prepare_master()
    run = Run(args, master)
    # serve answers are checked in this process: same pinned settings
    os.environ.update(run.env)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        e2e, layers = run_workload(run)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    wanted = spec["per_layer" if run.trace else "end_to_end"]
    values = layers if run.trace else e2e
    metrics = {}
    for metric in wanted:
        # a layer the workload does not exercise reads 0
        value = values.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(f"perfbench {run.workload} seed={run.seed} seconds={run.seconds:g} "
          f"trace={int(run.trace)} env={json.dumps(environment())}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    for note in run.notes:
        print(f"  note: {note.strip()}")
    correct = run.failed == 0
    print(f"  operations attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
