"""Code that runs inside the benchmark's child processes.

``run.py`` starts each of these with ``PYTHONPATH=src`` and the pinned
environment, so ``repro`` is always the checkout's own source:

* ``synth DIR`` — synthesize the grid's datasets into the on-disk
  dataset cache (once per source tree, never timed);
* ``reference OUT`` — the grid with ``Runner(use_trace_cache=False)``
  in a fresh interpreter, exported as the records every pass must match;
* ``cold`` — one cold grid pass in this fresh interpreter;
* ``warm`` — cache-filling pass, then timed warm passes until time is up;
* ``serve ARGS`` — ``graphbench serve ARGS`` with the layer ledger on.

Results go to a JSON file named by ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time

PLATFORMS = ("hadoop", "yarn", "stratosphere", "giraph", "graphlab", "neo4j")
ALGORITHMS = ("bfs", "conn")
DATASETS = ("amazon", "wikitalk", "kgs", "citation")
GRID_NAME = "grid"


def grid_sweep(seed: int | None):
    """The 48-cell grid; ``seed`` shuffles the platform axis after its
    first entry, which fixes the order a pass submits its cells in
    (``None`` keeps canonical order).

    The platform axis is innermost, so its first platform is the one
    that pays each (algorithm, dataset)'s first-touch costs, and the
    algorithm and dataset axes decide which traces are cached when the
    largest arrays are built.  Keeping those fixed keeps the per-cell
    latency distribution and the peak RSS the same for every seed.
    """
    from repro import das4_cluster
    from repro.core.spec import SweepSpec

    platforms = list(PLATFORMS)
    if seed is not None:
        rest = platforms[1:]
        random.Random(seed).shuffle(rest)
        platforms[1:] = rest
    return SweepSpec.make(
        GRID_NAME, platforms=platforms, algorithms=ALGORITHMS,
        datasets=DATASETS, cluster=das4_cluster(),
    )


def load_grid_datasets() -> None:
    from repro.datasets.registry import load_dataset

    for name in DATASETS:
        load_dataset(name)


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for (KiB on
    Linux)."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def cache_extras(runner) -> dict:
    stats = runner.cache_stats()
    lookups = stats["step_memo_hits"] + stats["step_memo_misses"]
    return {
        "trace_bytes": stats["trace_bytes"],
        "step_memo_hit_ratio": (
            stats["step_memo_hits"] / lookups if lookups else 0.0
        ),
    }


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def cmd_synth(args: argparse.Namespace) -> None:
    load_grid_datasets()


def cmd_reference(args: argparse.Namespace) -> None:
    from repro.core import Runner
    from repro.core.export import export

    load_grid_datasets()
    experiment = Runner(use_trace_cache=False).run_grid(
        grid_sweep(None), workers=1
    )
    export(experiment, path=args.out)


def _timed_pass(runner, sweep, workers: int, export_path: str):
    from repro.core.export import export

    start = time.perf_counter()
    experiment = runner.run_grid(sweep, workers=workers)
    export(experiment, path=export_path)
    wall = time.perf_counter() - start
    cell_walls = {
        f"{r.platform}/{r.algorithm}/{r.dataset}": r.result.wall_time_seconds
        for r in experiment if r.result is not None
    }
    return wall, len(experiment), cell_walls


def cmd_cold(args: argparse.Namespace) -> None:
    from repro import obs
    from repro.core import Runner

    session = None
    if args.trace:
        from ledger import Tracer

        Tracer().install()
        session = obs.start()
    begin = time.perf_counter()
    load_grid_datasets()
    loaded_at = time.monotonic()
    load_wall = time.perf_counter() - begin
    runner = Runner()
    wall, cells, cell_walls = _timed_pass(
        runner, grid_sweep(args.seed), args.workers, args.export
    )
    out = {
        "loaded_at": loaded_at,
        "wall": wall,
        "cells": cells,
        "cell_walls": cell_walls,
        "covered_wall": load_wall + wall,
        "rss_mb": peak_rss_mb(),
    }
    if session is not None:
        obs.stop()
        out["prometheus"] = session.metrics.to_prometheus()
        out.update(cache_extras(runner))
    _write(args.out, out)


def cmd_warm(args: argparse.Namespace) -> None:
    from repro import obs
    from repro.core import Runner

    load_grid_datasets()
    runner = Runner()
    sweep = grid_sweep(args.seed)
    _timed_pass(runner, sweep, 1, args.export)  # fills every cache
    setup_at = time.monotonic()
    tracer = session = None
    if args.trace:
        from ledger import Tracer

        tracer = Tracer()
        session = obs.Observability()
    passes = []
    deadline = time.perf_counter() + args.seconds
    minimum = 1 if session is None else 2  # one untraced, one traced
    while len(passes) < minimum or time.perf_counter() < deadline:
        # traced runs alternate untraced and traced passes, so both
        # see the same mix of fast and slow moments of the machine
        traced = session is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            with obs.scoped(session):
                wall, cells, walls = _timed_pass(runner, sweep, 1, args.export)
            tracer.uninstall()
        else:
            wall, cells, walls = _timed_pass(runner, sweep, 1, args.export)
        with open(args.export, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        passes.append({
            "wall": wall, "cells": cells, "cell_walls": walls,
            "traced": traced, "sha": digest,
        })
    out = {"setup_at": setup_at, "passes": passes, "rss_mb": peak_rss_mb()}
    if session is not None:
        out["prometheus"] = session.metrics.to_prometheus()
        out.update(cache_extras(runner))
    _write(args.out, out)


def cmd_serve(argv: list[str]) -> int:
    from ledger import Tracer

    from repro.cli import main as cli_main

    Tracer().install()
    return cli_main(["serve", *argv])


def main(argv: list[str]) -> int:
    if argv[:1] == ["serve"]:
        return cmd_serve(argv[1:])
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("synth").set_defaults(func=cmd_synth)
    ref = sub.add_parser("reference")
    ref.add_argument("out")
    ref.set_defaults(func=cmd_reference)
    for name, func in (("cold", cmd_cold), ("warm", cmd_warm)):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--export", required=True)
        p.add_argument("--trace", type=int, default=0)
        p.set_defaults(func=func)
        if name == "cold":
            p.add_argument("--workers", type=int, default=1)
        else:
            p.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
