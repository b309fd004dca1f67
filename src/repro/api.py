"""The frozen public API (``repro.api``): versioned request/response
values behind one ``submit()/result()`` surface.

Nine PRs of growth accreted entry points — ``Runner.run``,
``Runner.run_grid``, ``run_benchmark``, ``run_chaos_sweep``, four CLI
subcommands — each with its own argument vocabulary.  A long-running
prediction service (:mod:`repro.serve`) cannot sit on top of that
surface: a server needs **one** request/response contract whose wire
shape is frozen, schema'd, and round-trip stable across releases.
This module is that contract:

* :class:`PredictRequest` — "which platform/cluster for this workload,
  and at what cost?" for **one** cell; wraps
  :class:`~repro.core.spec.RunSpec`.
* :class:`SweepRequest` — the same question over a named cartesian
  grid; wraps :class:`~repro.core.spec.SweepSpec`.
* :class:`PredictResponse` — the full-disclosure answer for one cell
  (execution/computation/overhead time, breakdown, throughput,
  failure class), built from a :class:`~repro.core.results.RunRecord`.
* :class:`JobStatus` — the lifecycle view of a submitted request
  (``queued -> running -> done | failed``).
* :class:`ApiService` — the in-process reference implementation of the
  ``submit()/result()`` surface, and the one job table.  The HTTP
  server in :mod:`repro.serve` keeps its jobs in an ``ApiService`` and
  runs background sweeps through :meth:`ApiService.sweep`;
  ``graphbench run`` builds its cell from a :class:`PredictRequest`.

Each wire type is written once: every dataclass field declares its
JSON Schema fragment (type, ``enum``, ``minimum``/``exclusiveMinimum``,
``minItems``, nullability) in field metadata, and defaults are the
dataclass defaults.  One codec derives ``to_dict``/``from_dict``/
``to_json``/``from_json``/``json_schema`` from that table, and
``__post_init__`` validates with draft 2020-12 semantics, so direct
construction and wire decoding enforce the same rules.

Stability rules (``API_VERSION`` = 1):

* every payload carries ``"api_version"``; adding optional fields is a
  minor change, removing or re-typing a field bumps the version;
* ``to_json()``/``from_json()`` round-trip **bit-identically** (the
  canonical encoding is ``sort_keys=True`` with compact separators) —
  property-tested in ``tests/test_api.py``;
* the JSON Schemas returned by each type's ``json_schema()`` are
  golden-filed under ``tests/goldens/api_v1/``; an accidental contract
  change fails the suite.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import itertools
import json
import numbers
import threading
import typing as _t

from repro.cluster.spec import das4_cluster
from repro.core.spec import RunSpec, SweepSpec

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import ExperimentResult, RunRecord
    from repro.core.runner import Runner

__all__ = [
    "API_VERSION",
    "ApiError",
    "ApiService",
    "JobStatus",
    "PredictRequest",
    "PredictResponse",
    "SweepRequest",
    "canonical_json",
]

#: the frozen contract version stamped on every payload
API_VERSION = 1


def canonical_json(payload: dict) -> str:
    """The canonical wire encoding: sorted keys, compact separators.

    Byte-identical re-encoding is part of the contract — a cached
    server answer and a direct :meth:`Runner.run
    <repro.core.runner.Runner.run>` answer must serialize to the same
    bytes.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class ApiError(ValueError):
    """A request payload violating the v1 contract (bad type, missing
    field, unsupported parameter value)."""


# -- the codec ----------------------------------------------------------------

#: JSON types admissible as program-parameter values (the wire format
#: cannot carry arbitrary Python objects)
_SCALARS = ["boolean", "integer", "number", "string"]


def _is_number(value: object) -> bool:
    return type(value) in (int, float) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


#: draft 2020-12 type tests: ``20.0`` is an integer, ``true`` is not
_IS_TYPE: dict[str, _t.Callable[[object], bool]] = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict)
    and all(isinstance(k, str) for k in v),
    "number": _is_number,
    "integer": lambda v: _is_number(v)
    and (isinstance(v, numbers.Integral) or float(v).is_integer()),
}


def _base_type(schema: dict) -> str | None:
    """The one non-null JSON type a fragment admits, if it admits one."""
    types = schema.get("type")
    if isinstance(types, str):
        return types
    rest = [t for t in types or () if t != "null"]
    return rest[0] if len(rest) == 1 else None


def _violation(value: object, schema: dict) -> str | None:
    """Why ``value`` breaks the schema fragment, or ``None`` — the
    subset of draft 2020-12 the v1 contract uses.  The reason starts
    with the offending element's path inside ``value`` (empty at the
    top, ``[2]`` or ``['key']`` below), so a caller prefixes a name."""
    types = schema.get("type")
    if types is not None:
        names = [types] if isinstance(types, str) else types
        for name in names:
            if _IS_TYPE[name](value):
                break
        else:
            if names == _SCALARS:
                return (
                    f": non-JSON-scalar value {value!r}; the v1 wire "
                    f"format admits bool/int/float/str only"
                )
            return f": expected {' or '.join(names)}, got {value!r}"
    if "enum" in schema and value not in schema["enum"]:
        return f": {value!r} is not one of {', '.join(schema['enum'])}"
    bound = schema.get("minimum")
    if bound is not None and _is_number(value) and not value >= bound:
        return f": must be >= {bound}, got {value!r}"
    bound = schema.get("exclusiveMinimum")
    if bound is not None and _is_number(value) and not value > bound:
        return f": must be > {bound}, got {value!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f": needs at least {schema['minItems']} item(s)"
        items = schema.get("items")
        for index, item in enumerate(value if items else ()):
            problem = _violation(item, items)
            if problem:
                return f"[{index}]{problem}"
    entries = schema.get("additionalProperties")
    if isinstance(value, dict) and isinstance(entries, dict):
        for key, item in value.items():
            problem = _violation(item, entries)
            if problem:
                return f"[{key!r}]{problem}"
    return None


def _to_wire(value: object, schema: dict) -> object:
    """The JSON form of a field value: tuples become arrays, and
    (key, value) tuples become objects."""
    if isinstance(value, tuple):
        kind = _base_type(schema)
        if kind == "array":
            return list(value)
        if kind == "object":
            try:
                return dict(value)
            except (TypeError, ValueError):
                return value  # not pairs: the type check reports it
    return value


def _freeze(value: object, schema: dict) -> object:
    """The stored form of a valid JSON value: integers as ``int``,
    numbers as ``float``, arrays as tuples, and maps (objects with
    typed values) as sorted (key, value) tuples, so every wire type is
    hashable and compares by content."""
    if value is None:
        return None
    kind = _base_type(schema)
    if kind == "integer":
        return int(value)
    if kind == "number":
        return float(value)
    if kind == "array":
        return tuple(_freeze(v, schema["items"]) for v in value)
    entries = schema.get("additionalProperties")
    if kind == "object" and isinstance(entries, dict):
        return tuple(
            sorted((k, _freeze(v, entries)) for k, v in value.items())
        )
    return value


def _field(schema: dict, default: object = dataclasses.MISSING, *,
           norm: _t.Callable | None = None,
           error: str | None = None) -> _t.Any:
    """A wire field: its JSON Schema fragment, its default, an optional
    normalization of the stored value, and an optional error template
    (``{name}`` and ``{violation}`` are filled in)."""
    return dataclasses.field(
        default=default,
        metadata={"schema": schema, "norm": norm, "error": error},
    )


def _post_init(self) -> None:
    """Validate every field against its schema, then store the frozen
    form — the same rules for direct construction and wire decoding."""
    for name, schema, norm, error in self._wire_fields:
        value = _to_wire(getattr(self, name), schema)
        problem = _violation(value, schema)
        if problem:
            problem = name + problem
            raise ApiError(
                error.format(name=name, violation=problem)
                if error
                else f"bad {type(self).__name__} field {problem}"
            )
        value = _freeze(value, schema)
        if norm is not None:
            value = norm(value)
        object.__setattr__(self, name, value)


def _to_dict(self) -> dict:
    """The v1 wire payload as a JSON-ready dict."""
    out: dict[str, _t.Any] = {"api_version": API_VERSION}
    for name, schema, _, _ in self._wire_fields:
        out[name] = _to_wire(getattr(self, name), schema)
    return out


def _to_json(self) -> str:
    """The canonical JSON encoding of :meth:`to_dict`."""
    return canonical_json(self.to_dict())


def _from_dict(cls, payload: object):
    """Decode a v1 payload dict; raises :class:`ApiError` on any
    contract violation."""
    name = cls.__name__
    if not isinstance(payload, dict):
        raise ApiError(
            f"{name} payload must be an object, got {type(payload).__name__}"
        )
    version = payload.get("api_version", dataclasses.MISSING)
    if version is dataclasses.MISSING:
        if "api_version" in cls._required:
            raise ApiError(f"{name} payload is missing field 'api_version'")
    elif isinstance(version, bool) or version != API_VERSION:
        raise ApiError(
            f"unsupported api_version {version!r}; this build speaks "
            f"version {API_VERSION}"
        )
    kwargs = {}
    for field, _, _, _ in cls._wire_fields:
        if field in payload:
            kwargs[field] = payload[field]
        elif field in cls._required:
            raise ApiError(f"{name} payload is missing field {field!r}")
    return cls(**kwargs)


def _from_json(cls, text: str | bytes):
    """Decode a v1 JSON body; raises :class:`ApiError` on any contract
    violation, malformed JSON included."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or undecodable bytes
        raise ApiError(
            f"{cls.__name__} body is not valid JSON: {exc}"
        ) from None
    return cls.from_dict(payload)


def _json_schema(cls) -> dict:
    """The v1 JSON Schema of this type (golden-filed)."""
    properties: dict[str, _t.Any] = {"api_version": {"const": API_VERSION}}
    for f in dataclasses.fields(cls):
        fragment = copy.deepcopy(f.metadata["schema"])
        if cls._publish_defaults and f.default is not dataclasses.MISSING:
            fragment["default"] = _to_wire(f.default, fragment)
        properties[f.name] = fragment
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": cls.__name__,
        "description": cls._description,
        "type": "object",
        "required": list(cls._required),
        "additionalProperties": False,
        "properties": properties,
    }


def _wire_type(description: str, *, response: bool = False):
    """Class decorator: a frozen dataclass whose fields are its v1 wire
    contract.

    A request may omit ``api_version`` and every defaulted field, so
    its schema publishes the defaults; a ``response`` always carries
    every field, so it requires ``api_version`` and publishes none.
    The codec is installed into each class's own namespace (not
    inherited), so per-class wrappers — perfbench's ledger — can
    replace one type's ``from_json`` or ``to_dict`` alone.
    """

    def install(cls):
        cls.__post_init__ = _post_init
        cls = dataclasses.dataclass(frozen=True)(cls)
        cls._wire_fields = tuple(
            (f.name, f.metadata["schema"], f.metadata["norm"],
             f.metadata["error"])
            for f in dataclasses.fields(cls)
        )
        cls._description = description
        cls._publish_defaults = not response
        cls._required = (("api_version",) if response else ()) + tuple(
            f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
        )
        cls.to_dict = _to_dict
        cls.to_json = _to_json
        cls.from_dict = classmethod(_from_dict)
        cls.from_json = classmethod(_from_json)
        cls.json_schema = classmethod(_json_schema)
        return cls

    return install


# -- the wire types -----------------------------------------------------------

_NAME = {"type": "string"}
_COUNT = {"type": "integer", "minimum": 1}
_SCALE = {"type": "number", "exclusiveMinimum": 0}
_NAMES = {"type": "array", "items": {"type": "string"}, "minItems": 1}
_PARAMS = {"type": "object", "additionalProperties": {"type": _SCALARS}}
_OPT_NUMBER = {"type": ["number", "null"]}
_OPT_INTEGER = {"type": ["integer", "null"]}
_OPT_STRING = {"type": ["string", "null"]}


def _lower_names(names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(name.lower() for name in names)


_AXIS_ERROR = "{name} must be a non-empty list of names ({violation})"


@_wire_type(
    "One what-if prediction cell: which platform/cluster for this "
    "workload, at what cost?"
)
class PredictRequest:
    """One what-if question: a single (platform, algorithm, dataset)
    cell on a modeled cluster.

    ``params`` is stored in the spec layer's canonical sorted-tuple
    form; values are restricted to JSON scalars so the request
    round-trips the wire bit-identically.
    """

    platform: str = _field(_NAME, norm=str.lower)
    algorithm: str = _field(_NAME, norm=str.lower)
    dataset: str = _field(_NAME, norm=str.lower)
    scale: float = _field(_SCALE, 1.0)
    num_workers: int = _field(_COUNT, 20)
    cores_per_worker: int = _field(_COUNT, 1)
    repetitions: int = _field(_COUNT, 1)
    params: tuple[tuple[str, object], ...] = _field(_PARAMS, ())

    # -- conversions -------------------------------------------------------
    def to_run_spec(self) -> RunSpec:
        """The equivalent :class:`~repro.core.spec.RunSpec`."""
        return RunSpec(
            platform=self.platform,
            algorithm=self.algorithm,
            dataset=self.dataset,
            cluster=das4_cluster(self.num_workers, self.cores_per_worker),
            params=self.params,
        )

    def cell_key(self) -> tuple:
        """Content identity (coalescing and the answer cache key); the
        scale participates because the same named dataset at two scales
        is two different workloads."""
        return (self.scale, self.repetitions, self.to_run_spec().cell_key())


@_wire_type("A named cartesian grid of prediction cells.")
class SweepRequest:
    """A named cartesian grid of prediction cells (the ``/v1/sweep``
    payload); ``workers`` is the executor's process count, while
    ``num_workers``/``cores_per_worker`` describe the *modeled*
    cluster, exactly as in the CLI vocabulary."""

    platforms: tuple[str, ...] = _field(
        _NAMES, norm=_lower_names, error=_AXIS_ERROR
    )
    algorithms: tuple[str, ...] = _field(
        _NAMES, norm=_lower_names, error=_AXIS_ERROR
    )
    datasets: tuple[str, ...] = _field(
        _NAMES, norm=_lower_names, error=_AXIS_ERROR
    )
    name: str = _field(_NAME, "api-sweep")
    scale: float = _field(_SCALE, 1.0)
    num_workers: int = _field(_COUNT, 20)
    cores_per_worker: int = _field(_COUNT, 1)
    workers: int = _field(_COUNT, 1)
    params: tuple[tuple[str, object], ...] = _field(_PARAMS, ())

    # -- conversions -------------------------------------------------------
    def to_sweep_spec(self) -> SweepSpec:
        """The equivalent :class:`~repro.core.spec.SweepSpec`."""
        return SweepSpec(
            name=self.name,
            platforms=self.platforms,
            algorithms=self.algorithms,
            datasets=self.datasets,
            cluster=das4_cluster(self.num_workers, self.cores_per_worker),
            params=self.params,
            workers=self.workers,
        )

    def cells(self) -> list[PredictRequest]:
        """The grid flattened to per-cell requests, in the sweep's
        canonical algorithm -> dataset -> platform order."""
        return [
            PredictRequest(
                platform=plat, algorithm=algo, dataset=ds,
                scale=self.scale, num_workers=self.num_workers,
                cores_per_worker=self.cores_per_worker, params=self.params,
            )
            for algo, ds, plat in itertools.product(
                self.algorithms, self.datasets, self.platforms
            )
        ]


@_wire_type(
    "Full-disclosure answer for one prediction cell; crashed/DNF cells "
    "carry null timings and a failure_reason.",
    response=True,
)
class PredictResponse:
    """The full-disclosure answer for one cell.

    Built from a :class:`~repro.core.results.RunRecord` via
    :meth:`from_record`; crashed and DNF cells keep their identity and
    failure class with every timing field ``None`` — a capacity verdict
    is an answer too (the paper's Figure 1 annotations).
    """

    platform: str = _field(_NAME)
    algorithm: str = _field(_NAME)
    dataset: str = _field(_NAME)
    status: str = _field({"enum": ["ok", "crashed", "dnf"]})
    execution_time: float | None = _field(_OPT_NUMBER, None)
    computation_time: float | None = _field(_OPT_NUMBER, None)
    overhead_time: float | None = _field(_OPT_NUMBER, None)
    supersteps: int | None = _field(_OPT_INTEGER, None)
    breakdown: tuple[tuple[str, float], ...] = _field(
        {"type": "object", "additionalProperties": {"type": "number"}}, ()
    )
    num_vertices: int | None = _field(_OPT_INTEGER, None)
    num_edges: int | None = _field(_OPT_INTEGER, None)
    eps: float | None = _field(_OPT_NUMBER, None)
    vps: float | None = _field(_OPT_NUMBER, None)
    repetition_times: tuple[float, ...] = _field(
        {"type": "array", "items": {"type": "number"}}, ()
    )
    failure_reason: str | None = _field(_OPT_STRING, None)

    @classmethod
    def from_record(cls, record: "RunRecord") -> "PredictResponse":
        """The response for one runner record (the single construction
        path — the server's cached answers and a direct
        ``Runner.run(spec)`` therefore serialize byte-identically)."""
        fields: dict[str, _t.Any] = {
            "platform": record.platform,
            "algorithm": record.algorithm,
            "dataset": record.dataset,
            "status": record.status.value,
            "execution_time": record.execution_time,
            "repetition_times": record.repetition_times,
            "failure_reason": record.failure_reason or None,
        }
        if record.result is not None:
            from repro.core.metrics import paper_scale_eps, paper_scale_vps

            r = record.result
            fields.update(
                computation_time=r.computation_time,
                overhead_time=r.overhead_time,
                supersteps=r.supersteps,
                breakdown=tuple(r.breakdown.items()),
                num_vertices=r.num_vertices,
                num_edges=r.num_edges,
                eps=paper_scale_eps(r),
                vps=paper_scale_vps(r),
            )
        return cls(**fields)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


#: job states the bounded job table may evict
_FINISHED = ("done", "failed")


@_wire_type("Lifecycle view of one submitted request.", response=True)
class JobStatus:
    """The lifecycle view of one submitted request.

    ``result`` is the payload dict once ``state == "done"`` — a
    :class:`PredictResponse` dict for predict jobs, a records document
    for sweep jobs; ``error`` explains a ``failed`` state.
    """

    job_id: str = _field(_NAME)
    kind: str = _field({"enum": ["predict", "sweep"]})
    state: str = _field(
        {"enum": ["queued", "running", *_FINISHED]},
        error="unknown job {violation}",
    )
    result: dict | None = _field({"type": ["object", "null"]}, None)
    error: str | None = _field(_OPT_STRING, None)


def sweep_result_dict(experiment: "ExperimentResult") -> dict:
    """A sweep's records as the v1 job-result payload: one
    :class:`PredictResponse` dict per cell, in canonical grid order."""
    return {
        "api_version": API_VERSION,
        "name": experiment.name,
        "cells": [
            PredictResponse.from_record(record).to_dict()
            for record in experiment
        ],
    }


def runner_view(
    runner: "Runner", scale: float, repetitions: int | None = None
) -> "Runner":
    """``runner`` re-targeted at one request's dataset scale and
    repetition count (default: the runner's own).  The view keeps the
    seed, jitter and shared trace cache, so the reference, batched and
    served answers stay byte-identical."""
    reps = runner.repetitions if repetitions is None else int(repetitions)
    if float(scale) == float(runner.scale) and reps == runner.repetitions:
        return runner
    return dataclasses.replace(runner, scale=float(scale), repetitions=reps)


class ApiService:
    """The in-process reference implementation of the
    ``submit()/result()`` surface.

    One runner (with its trace cache) serves every request, and one
    bounded, thread-safe job table records every job.  :meth:`submit`
    completes jobs *synchronously* — the simplest implementation that
    honours the contract.  :class:`repro.serve.app.GraphbenchServer`
    answers asynchronously with admission control, coalescing and an
    answer cache, and keeps its jobs here.
    """

    #: finished jobs kept for :meth:`result`; queued and running jobs
    #: are never evicted, so a long sweep stays visible under load
    max_jobs = 1024

    def __init__(self, runner: "Runner | None" = None) -> None:
        from repro.core.runner import Runner

        self.runner = runner if runner is not None else Runner()
        self._jobs: collections.OrderedDict[str, JobStatus] = (
            collections.OrderedDict()
        )
        self._job_ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- synchronous convenience -------------------------------------------
    def predict(self, request: PredictRequest) -> PredictResponse:
        """Answer one cell now (scale and repetition mismatches run on
        a :func:`runner_view`)."""
        runner = runner_view(self.runner, request.scale, request.repetitions)
        return PredictResponse.from_record(runner.run(request.to_run_spec()))

    def sweep(self, request: SweepRequest) -> "ExperimentResult":
        """Run one grid now, honouring the request's worker count."""
        return runner_view(self.runner, request.scale).run_grid(
            request.to_sweep_spec()
        )

    # -- the job table -----------------------------------------------------
    def new_job(self, kind: str, state: str = "queued",
                result: dict | None = None) -> JobStatus:
        """Mint a job id and record the job in ``state``."""
        with self._lock:
            job_id = f"job-{next(self._job_ids)}"
        return self.set_job(
            JobStatus(job_id=job_id, kind=kind, state=state, result=result)
        )

    def set_job(self, status: JobStatus) -> JobStatus:
        """Record ``status`` as its job's latest state, evicting the
        oldest finished jobs past :attr:`max_jobs`."""
        with self._lock:
            self._jobs[status.job_id] = status
            self._jobs.move_to_end(status.job_id)
            excess = len(self._jobs) - self.max_jobs
            if excess > 0:
                finished = (
                    job_id for job_id, job in self._jobs.items()
                    if job.state in _FINISHED
                )
                for job_id in list(itertools.islice(finished, excess)):
                    del self._jobs[job_id]
        return status

    def run_job(self, job_id: str,
                request: PredictRequest | SweepRequest) -> JobStatus:
        """Run a recorded job to completion: ``running``, then ``done``
        with its result payload or ``failed`` with the error."""
        kind = _job_kind(request)
        self.set_job(JobStatus(job_id=job_id, kind=kind, state="running"))
        try:
            if kind == "predict":
                payload = self.predict(request).to_dict()
            else:
                payload = sweep_result_dict(self.sweep(request))
        except Exception as exc:  # noqa: BLE001 - contract: failed state
            return self.set_job(JobStatus(
                job_id=job_id, kind=kind, state="failed", error=str(exc)
            ))
        return self.set_job(JobStatus(
            job_id=job_id, kind=kind, state="done", result=payload
        ))

    # -- the job surface ---------------------------------------------------
    def submit(self, request: PredictRequest | SweepRequest) -> str:
        """Accept a request; returns its job id.  The reference
        implementation completes the job before returning."""
        job_id = self.new_job(_job_kind(request)).job_id
        self.run_job(job_id, request)
        return job_id

    def result(self, job_id: str) -> JobStatus:
        """The status of a submitted job; raises :class:`KeyError` for
        an unknown id."""
        return self._jobs[job_id]


def _job_kind(request: object) -> str:
    if isinstance(request, PredictRequest):
        return "predict"
    if isinstance(request, SweepRequest):
        return "sweep"
    raise ApiError(
        f"submit() takes a PredictRequest or SweepRequest, "
        f"got {type(request).__name__}"
    )
