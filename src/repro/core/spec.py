"""Experiment cell specifications: the unified RunSpec/SweepSpec API.

The paper's method is a *grid* — platforms x algorithm classes x
datasets, every cell independent (Section 3.2).  Historically the
runner described a cell as loose positional arguments plus ``**params``
kwargs, which made cells second-class: not hashable (no deduplication),
not picklable (no dispatch to worker processes), and not serializable
(no resume).  This module makes the cell a value:

* :class:`RunSpec` — one frozen, hashable, picklable description of a
  single experiment cell: platform, algorithm, dataset, cluster, fault
  plan, program parameters, and an optional explicit jitter seed;
* :class:`SweepSpec` — a named cartesian grid of cells plus execution
  knobs (currently the worker-process count);
* :func:`derive_cell_seed` — an order-independent per-cell seed so a
  cell's jitter stream depends only on ``(base seed, cell identity)``,
  never on where in a grid the cell happens to run (serial, reordered,
  or on another worker process).

``Runner.run(spec)``, ``Runner.run_grid(sweep)``, the ``graphbench``
CLI, and the parallel executor in :mod:`repro.core.sweep` all consume
these objects.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as _t

from repro.cluster.spec import ClusterSpec
from repro.des.faults import FaultPlan

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.graph import Graph
    from repro.platforms.base import Platform

__all__ = ["RunSpec", "SweepSpec", "derive_cell_seed"]


def _normalize_params(
    params: _t.Mapping[str, object] | _t.Iterable[tuple[str, object]] | None,
) -> tuple[tuple[str, object], ...]:
    """Canonical sorted-tuple form of a parameter mapping."""
    if params is None:
        return ()
    items = params.items() if isinstance(params, _t.Mapping) else params
    return tuple(sorted((str(k), v) for k, v in items))


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One experiment cell as a first-class value.

    ``platform`` and ``dataset`` are registry names in the common case;
    pre-built :class:`~repro.platforms.base.Platform` and
    :class:`~repro.graph.graph.Graph` objects are accepted for ad-hoc
    experiments (such specs are not :attr:`named <is_named>` and cannot
    be dispatched to worker processes).  ``params`` is stored as a
    sorted tuple of ``(name, value)`` pairs so equal parameterizations
    compare and hash equal regardless of keyword order; build specs
    with :meth:`make` to pass them as keywords.

    ``seed`` overrides the runner's derived per-cell jitter seed
    (``None`` — the default — derives one from the runner seed and the
    cell identity, see :func:`derive_cell_seed`).
    """

    platform: "str | Platform"
    algorithm: str
    dataset: "str | Graph"
    cluster: ClusterSpec | None = None
    fault_plan: FaultPlan | None = None
    params: tuple[tuple[str, object], ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.platform, str):
            object.__setattr__(self, "platform", self.platform.lower())
        object.__setattr__(self, "algorithm", self.algorithm.lower())
        if isinstance(self.dataset, str):
            object.__setattr__(self, "dataset", self.dataset.lower())
        object.__setattr__(self, "params", _normalize_params(self.params))

    @classmethod
    def make(
        cls,
        platform: "str | Platform",
        algorithm: str,
        dataset: "str | Graph",
        cluster: ClusterSpec | None = None,
        fault_plan: FaultPlan | None = None,
        *,
        seed: int | None = None,
        **params: object,
    ) -> "RunSpec":
        """Build a spec with program parameters given as keywords."""
        return cls(
            platform=platform,
            algorithm=algorithm,
            dataset=dataset,
            cluster=cluster,
            fault_plan=fault_plan,
            params=_normalize_params(params),
            seed=seed,
        )

    # -- views -------------------------------------------------------------
    @property
    def platform_name(self) -> str:
        """The platform's registry name (works for instances too)."""
        return self.platform if isinstance(self.platform, str) else self.platform.name

    @property
    def dataset_name(self) -> str:
        """The dataset's registry name (or the graph's name)."""
        return self.dataset if isinstance(self.dataset, str) else self.dataset.name

    @property
    def is_named(self) -> bool:
        """True when platform and dataset are registry names — the
        precondition for dispatching this cell to a worker process."""
        return isinstance(self.platform, str) and isinstance(self.dataset, str)

    def params_dict(self) -> dict[str, object]:
        """The program parameters as a plain keyword dict."""
        return dict(self.params)

    def cell_key(self) -> tuple:
        """Content-based identity of this cell (seed derivation and
        deduplication).  Uses names, not object identity, so the same
        cell keys identically across processes."""
        return (
            self.platform_name,
            self.algorithm,
            self.dataset_name,
            tuple((k, repr(v)) for k, v in self.params),
            self.fault_plan.key()
            if self.fault_plan is not None and not self.fault_plan.is_empty
            else (),
            () if self.cluster is None else (
                self.cluster.num_workers, self.cluster.cores_per_worker,
            ),
        )

    def describe(self) -> str:
        """One-line cell description for logs and error messages."""
        extra = ""
        if self.params:
            extra += " " + ",".join(f"{k}={v!r}" for k, v in self.params)
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            extra += f" faults={self.fault_plan.name}"
        return f"{self.platform_name}/{self.algorithm}/{self.dataset_name}{extra}"


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A named cartesian grid of cells plus execution knobs.

    :meth:`cells` yields the grid in the canonical serial order —
    fault-plan-major (when the ``fault_plans`` axis is populated), then
    algorithm, then dataset, then platform — which is also the record
    order of the returned
    :class:`~repro.core.results.ExperimentResult` regardless of how
    many worker processes executed the cells.

    Fault plans enter in one of two mutually exclusive ways:
    ``fault_plan`` applies one plan to every cell (the pre-chaos-sweep
    behaviour), while the ``fault_plans`` *axis* crosses each listed
    plan with the whole platform x algorithm x dataset grid — the
    chaos-sweep scenario matrix.

    ``workers`` is the default process count used by
    ``Runner.run_grid(sweep)`` when no explicit ``workers=`` override
    is given; 1 means in-process serial execution.
    """

    name: str
    platforms: tuple[str, ...]
    algorithms: tuple[str, ...]
    datasets: tuple[str, ...]
    cluster: ClusterSpec | None = None
    fault_plan: FaultPlan | None = None
    fault_plans: tuple[FaultPlan, ...] = ()
    params: tuple[tuple[str, object], ...] = ()
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "platforms", tuple(p.lower() for p in self.platforms)
        )
        object.__setattr__(
            self, "algorithms", tuple(a.lower() for a in self.algorithms)
        )
        object.__setattr__(
            self, "datasets", tuple(d.lower() for d in self.datasets)
        )
        object.__setattr__(self, "fault_plans", tuple(self.fault_plans))
        if self.fault_plans and self.fault_plan is not None:
            raise ValueError(
                "pass either one fault_plan for every cell or a "
                "fault_plans axis, not both"
            )
        object.__setattr__(self, "params", _normalize_params(self.params))
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def make(
        cls,
        name: str,
        *,
        platforms: _t.Sequence[str],
        algorithms: _t.Sequence[str],
        datasets: _t.Sequence[str],
        cluster: ClusterSpec | None = None,
        fault_plan: FaultPlan | None = None,
        fault_plans: _t.Sequence[FaultPlan] = (),
        workers: int = 1,
        **params: object,
    ) -> "SweepSpec":
        """Build a sweep with program parameters given as keywords."""
        return cls(
            name=name,
            platforms=tuple(platforms),
            algorithms=tuple(algorithms),
            datasets=tuple(datasets),
            cluster=cluster,
            fault_plan=fault_plan,
            fault_plans=tuple(fault_plans),
            params=_normalize_params(params),
            workers=workers,
        )

    def __len__(self) -> int:
        return (
            len(self.effective_plans())
            * len(self.platforms)
            * len(self.algorithms)
            * len(self.datasets)
        )

    def effective_plans(self) -> tuple[FaultPlan | None, ...]:
        """The fault-plan axis actually crossed with the grid: the
        ``fault_plans`` axis when populated, else the single shared
        ``fault_plan`` (``None`` for fault-free)."""
        return self.fault_plans if self.fault_plans else (self.fault_plan,)

    def cells(self) -> _t.Iterator[RunSpec]:
        """The grid's cells in canonical serial order."""
        for plan in self.effective_plans():
            for algo in self.algorithms:
                for ds in self.datasets:
                    for plat in self.platforms:
                        yield RunSpec(
                            platform=plat,
                            algorithm=algo,
                            dataset=ds,
                            cluster=self.cluster,
                            fault_plan=plan,
                            params=self.params,
                        )


def derive_cell_seed(base_seed: int, spec: RunSpec, *, scale: float = 1.0) -> int:
    """A deterministic, order-independent seed for one cell's jitter
    stream.

    Hashing ``(base seed, dataset scale, cell identity)`` makes the
    stream a pure function of *what* the cell is — never of grid
    position, execution order, or the process the cell runs in — so a
    reordered or parallel grid reproduces the serial results
    bit-for-bit.  An explicit ``spec.seed`` wins outright.
    """
    if spec.seed is not None:
        return int(spec.seed)
    payload = repr((int(base_seed), float(scale), spec.cell_key()))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
