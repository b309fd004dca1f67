"""The per-layer ledger: self times and work counts of the repo's layers.

A traced run wraps each layer's public functions from here, without
touching ``src/``.  Every wrapped call adds its *self* time (its
duration minus the durations of wrapped calls made inside it) and one
call to counters in the ambient :mod:`repro.obs` registry.  Using that
registry means one mechanism serves every process shape:

* a grid pass reads its own registry after the pass;
* sweep workers record into their per-batch sessions, which the sweep
  executor already ships back and merges into the parent's;
* the server exposes the counters on its existing ``/metrics`` route.

Self time is kept per thread on a stack of "time spent in wrapped
children" accumulators, so a child's time is subtracted from its
parent once, and nested calls of one layer add up without counting
twice.
"""

from __future__ import annotations

import functools
import importlib
import math
import re
import sys
import threading
import time
import typing as _t

#: (layer, module, qualified name, call counter or None) of each wrapped
#: public function.  A layer's self time is the sum over its functions.
TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("datasets.load", "repro.datasets.registry", "load_dataset", None),
    # load_cached runs once per dataset the registry memo misses
    ("datasets.load", "repro.datasets.diskcache", "load_cached",
     "datasets.loads"),
    ("graph.partition", "repro.graph.partition", "hash_partition",
     "graph.partitions_hash"),
    ("graph.partition", "repro.graph.partition", "range_partition",
     "graph.partitions_range"),
    ("graph.partition", "repro.graph.partition", "greedy_partition",
     "graph.partitions_greedy"),
    ("graph.partition", "repro.platforms.base", "PartitionContext.__init__",
     "graph.contexts_built"),
    ("kernels.ldg_assign", "repro.kernels.dispatch", "ldg_assign", None),
    ("graph.text_size", "repro.graph.graph", "Graph.text_size_bytes",
     "graph.text_size_calls"),
    ("trace_cache.record", "repro.algorithms.base", "record_trace",
     "trace_cache.recordings"),
    ("platforms.charge", "repro.platforms.base", "Platform.run", None),
    ("des.sim", "repro.des.engine", "Simulator.run", None),
    *(
        ("cluster.monitor", "repro.cluster.monitoring",
         f"ResourceTrace.{method}", None)
        for method in ("record", "set_memory", "sample", "series", "peak",
                       "mean", "attribution", "peak_attribution")
    ),
    ("core.export", "repro.core.export", "export", None),
    ("api.decode", "repro.api", "PredictRequest.from_json", None),
    ("api.encode", "repro.api", "PredictResponse.from_record", None),
    ("api.encode", "repro.api", "PredictResponse.to_dict", None),
)

#: every layer with a self time, in report order
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

_PREFIX = "perfbench."


def self_counter(layer: str) -> str:
    return f"{_PREFIX}{layer}.self_s"


def calls_counter(name: str) -> str:
    return f"{_PREFIX}{name}"


def _obs_sink(name: str, delta: float) -> None:
    from repro import obs

    session = obs.active()
    if session is not None:
        session.metrics.count(name, delta)


class Tracer:
    """Wraps the target functions while installed.

    ``sink(name, delta)`` receives every self-time and call increment;
    by default it adds them to the ambient :mod:`repro.obs` registry
    (and drops them while no session is active).
    """

    def __init__(
        self,
        targets: _t.Sequence[tuple[str, str, str, str | None]] = TARGETS,
        sink: _t.Callable[[str, float], None] = _obs_sink,
    ) -> None:
        self.targets = tuple(targets)
        self.sink = sink
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------
    def _wrap(
        self, fn: _t.Callable, layer: str, calls: str | None
    ) -> _t.Callable:
        local, sink = self._local, self.sink
        self_name = self_counter(layer)
        calls_name = calls_counter(calls) if calls else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                sink(self_name, elapsed - children)
                if calls_name is not None:
                    sink(calls_name, 1.0)

        return traced

    def _patch(self, owner: object, attr: str, original: object,
               new: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, qualname, calls in self.targets:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, layer, calls))
                else:
                    new = self._wrap(raw, layer, calls)
                self._patch(cls, attr, raw, new)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(original, layer, calls)
            # Callers that did ``from module import fn`` hold their own
            # reference: rebind every alias in the package too.
            package = module_name.split(".")[0]
            for name, mod in list(sys.modules.items()):
                if mod is None or (
                    name != package and not name.startswith(package + ".")
                ):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapped)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


# -- reading the ledger back ---------------------------------------------------

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*(?:\{[^}]*\})?)\s+(\S+)$")
_TYPE = re.compile(r"^# TYPE (\S+) (\S+)$")


def parse_prometheus(text: str) -> tuple[dict[str, float], dict[str, str]]:
    """(sample name with its label set -> value, metric -> type)."""
    values: dict[str, float] = {}
    types: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        typed = _TYPE.match(line)
        if typed:
            types[typed.group(1)] = typed.group(2)
            continue
        match = _SAMPLE.match(line)
        if match:
            values[match.group(1)] = float(match.group(2))
    return values, types


def _pname(name: str) -> str:
    return "graphbench_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


class Samples:
    """Typed lookups over one scrape of a ``repro.obs`` registry."""

    def __init__(self, text: str = "") -> None:
        self.values, self.types = parse_prometheus(text)

    def since(self, earlier: "Samples") -> "Samples":
        """Counters and summary sums/counts minus ``earlier``'s; gauges
        and quantiles as they are now."""
        out = Samples()
        out.types = dict(self.types)
        for key, value in self.values.items():
            base = re.sub(r"_(sum|count)$", "", key)
            kind = self.types.get(key) or self.types.get(base)
            cumulative = kind == "counter" or (
                kind == "summary" and key != base
            )
            if cumulative:
                value -= earlier.values.get(key, 0.0)
            out.values[key] = value
        return out

    def get(self, name: str, default: float = 0.0) -> float:
        value = self.values.get(_pname(name), default)
        return default if math.isnan(value) else value

    def hist_sum(self, name: str) -> float:
        return self.get(name + "_sum")

    def hist_count(self, name: str) -> float:
        return self.get(name + "_count")

    def hist_quantile(self, name: str, q: str) -> float:
        value = self.values.get(f'{_pname(name)}{{quantile="{q}"}}', 0.0)
        return 0.0 if math.isnan(value) else value

    def sum_matching(self, pattern: str) -> float:
        regex = re.compile(pattern)
        return sum(v for k, v in self.values.items() if regex.fullmatch(k))


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def unattributed_share(self_times: _t.Iterable[float], covered: float) -> float:
    """Share of ``covered`` wall that no wrapped layer accounts for,
    clamped to [0, 1] (threads and worker processes can make the self
    times of concurrent layers overlap in wall time)."""
    if covered <= 0:
        return 0.0
    return min(1.0, max(0.0, 1.0 - sum(self_times) / covered))


def layer_metrics(samples: Samples, units: float) -> dict[str, float]:
    """Self times (s) and counts of every layer, per unit of work (one
    grid pass, or one scheduled second of serve load), plus the ratios
    that are already per unit."""
    if units <= 0:
        raise ValueError("layer metrics need a positive unit count")
    self_s = {layer: samples.get(self_counter(layer)) for layer in LAYERS}
    calls = {
        t[3]: samples.get(calls_counter(t[3])) for t in TARGETS if t[3]
    }
    hits = samples.get("trace_cache.hits")
    misses = samples.get("trace_cache.misses")
    out = {
        "datasets.load_s": self_s["datasets.load"],
        "datasets.loads": calls["datasets.loads"],
        "graph.partition_s": self_s["graph.partition"],
        "graph.partitions_built": (
            calls["graph.partitions_hash"] + calls["graph.partitions_range"]
            + calls["graph.partitions_greedy"]
        ),
        "graph.partitions_hash": calls["graph.partitions_hash"],
        "graph.partitions_greedy": calls["graph.partitions_greedy"],
        "kernels.ldg_assign_s": self_s["kernels.ldg_assign"],
        "graph.text_size_s": self_s["graph.text_size"],
        "graph.text_size_calls": calls["graph.text_size_calls"],
        "trace_cache.record_s": self_s["trace_cache.record"],
        "trace_cache.misses": misses,
        "platforms.charge_s": self_s["platforms.charge"],
        "des.sim_s": self_s["des.sim"],
        "cluster.monitor_s": self_s["cluster.monitor"],
        "kernels.calls": samples.sum_matching(r"graphbench_kernels_.+_calls"),
        "core.export_s": self_s["core.export"],
        "sweep.pool_wall_s": samples.hist_sum("sweep.pool_wall_seconds"),
        "sweep.batches": samples.get("sweep.batches_total"),
        "api.decode_s": self_s["api.decode"],
        "api.encode_s": self_s["api.encode"],
    }
    out = {name: value / units for name, value in out.items()}
    out["trace_cache.hit_ratio"] = ratio(hits, hits + misses)
    out["sweep.worker_utilization"] = samples.get("sweep.worker_utilization")
    out["runner.cell_p99_ms"] = (
        samples.hist_quantile("runner.cell_wall_seconds", "0.99") * 1e3
    )
    return out


def total_self_seconds(samples: Samples) -> float:
    return sum(samples.get(self_counter(layer)) for layer in LAYERS)
