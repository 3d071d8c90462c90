"""Monte-Carlo experiment harness.

The paper repeats every measurement over 10 Monte-Carlo runs (Section 7.1)
and reports CDFs of the per-run normalized cost and running time, plus
tables of normalized communication.  :class:`ExperimentRunner` reproduces
that workflow for any set of pipelines, in both the single-source and the
multi-source setting.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import DistributedStagePipeline, StagePipeline
from repro.distributed.partition import partition_dataset
from repro.metrics.evaluation import (
    EvaluationContext,
    PipelineEvaluation,
    evaluate_report,
)
from repro.utils.random import SeedLike, as_generator, derive_seed, spawn_generators
from repro.utils.validation import check_matrix, check_positive_int

#: A factory that builds a fresh pipeline for one Monte-Carlo run, given the
#: run's seed.  Fresh construction per run keeps runs statistically
#: independent while remaining reproducible.
PipelineFactory = Callable[[int], object]


@dataclass
class AlgorithmSummary:
    """Aggregate statistics of one algorithm over all Monte-Carlo runs."""

    algorithm: str
    mean_normalized_cost: float
    max_normalized_cost: float
    mean_normalized_communication: float
    mean_source_seconds: float
    runs: int
    #: Mean sources contributing to the fold (== the deployment size on
    #: healthy runs; smaller under simulated link loss or dropout).
    mean_participating_sources: float = 1.0
    total_failed_sources: int = 0
    total_retransmissions: int = 0
    total_messages_lost: int = 0
    mean_simulated_network_seconds: float = 0.0

    @classmethod
    def from_evaluations(cls, evaluations: Sequence[PipelineEvaluation]) -> "AlgorithmSummary":
        if not evaluations:
            raise ValueError("cannot summarize zero evaluations")
        costs = np.array([e.normalized_cost for e in evaluations])
        comms = np.array([e.normalized_communication for e in evaluations])
        times = np.array([e.source_seconds for e in evaluations])
        return cls(
            algorithm=evaluations[0].algorithm,
            mean_normalized_cost=float(costs.mean()),
            max_normalized_cost=float(costs.max()),
            mean_normalized_communication=float(comms.mean()),
            mean_source_seconds=float(times.mean()),
            runs=len(evaluations),
            mean_participating_sources=float(
                np.mean([e.participating_sources for e in evaluations])
            ),
            total_failed_sources=int(sum(e.failed_sources for e in evaluations)),
            total_retransmissions=int(sum(e.retransmissions for e in evaluations)),
            total_messages_lost=int(sum(e.messages_lost for e in evaluations)),
            mean_simulated_network_seconds=float(
                np.mean([e.simulated_network_seconds for e in evaluations])
            ),
        )


@dataclass
class ExperimentResult:
    """All per-run evaluations of one experiment, keyed by algorithm label."""

    evaluations: Dict[str, List[PipelineEvaluation]] = field(default_factory=dict)

    def add(self, label: str, evaluation: PipelineEvaluation) -> None:
        self.evaluations.setdefault(label, []).append(evaluation)

    def summary(self) -> Dict[str, AlgorithmSummary]:
        return {
            label: AlgorithmSummary.from_evaluations(evals)
            for label, evals in self.evaluations.items()
        }

    def metric_samples(self, label: str, metric: str) -> np.ndarray:
        """Per-run samples of one metric for one algorithm (CDF material)."""
        evals = self.evaluations.get(label)
        if not evals:
            raise KeyError(
                f"no evaluations recorded for {label!r}; "
                f"available labels: {sorted(self.evaluations) or 'none'}"
            )
        _check_metric_name(metric)
        return np.array([getattr(e, metric) for e in evals], dtype=float)

    def table(self, metric: str) -> Dict[str, float]:
        """Mean of one metric per algorithm (the paper's table format)."""
        _check_metric_name(metric)
        return {
            label: float(np.mean([getattr(e, metric) for e in evals]))
            for label, evals in self.evaluations.items()
        }


#: Metric names :meth:`ExperimentResult.metric_samples` / ``table`` accept —
#: the fields of one per-run :class:`PipelineEvaluation`.
EVALUATION_METRICS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(PipelineEvaluation) if f.name != "algorithm"
)


def _check_metric_name(metric: str) -> None:
    """Reject unknown metric names with the available set (a bare
    ``AttributeError`` from ``getattr`` used to surface here)."""
    if metric not in EVALUATION_METRICS:
        raise KeyError(
            f"unknown metric {metric!r}; available metrics: "
            f"{', '.join(EVALUATION_METRICS)}"
        )


def empirical_cdf(samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of a sample vector: returns ``(sorted values, F)``."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot compute the CDF of an empty sample")
    values = np.sort(samples)
    fractions = np.arange(1, values.size + 1) / values.size
    return values, fractions


class ExperimentRunner:
    """Repeats a set of pipelines for several Monte-Carlo runs.

    Parameters
    ----------
    points:
        The full dataset P.
    k:
        Number of clusters.
    monte_carlo_runs:
        Number of independent repetitions (the paper uses 10).
    seed:
        Master seed; run seeds and the reference solver's seed derive from it.
    reference_n_init:
        Restarts used for the reference centers X*.
    context:
        Optional pre-built :class:`EvaluationContext` to evaluate against
        (the sweep runner shares one reference solution per ``(dataset, k)``
        cell group so paired cells are judged against identical X*).  The
        reference-solver seed is still drawn from the master generator, so
        the per-run Monte-Carlo seeds are identical whether or not a
        context is supplied.
    """

    def __init__(
        self,
        points: np.ndarray,
        k: int,
        monte_carlo_runs: int = 10,
        seed: SeedLike = None,
        reference_n_init: int = 10,
        context: Optional[EvaluationContext] = None,
    ) -> None:
        self.points = check_matrix(points, "points")
        self.k = check_positive_int(k, "k")
        self.monte_carlo_runs = check_positive_int(monte_carlo_runs, "monte_carlo_runs")
        self._rng = as_generator(seed)
        reference_seed = derive_seed(self._rng)
        if context is None:
            context = EvaluationContext.build(
                self.points, self.k, n_init=reference_n_init, seed=reference_seed
            )
        self.context = context
        self._run_seeds = [derive_seed(rng) for rng in spawn_generators(self._rng, monte_carlo_runs)]

    @property
    def run_seeds(self) -> List[int]:
        """The per-run Monte-Carlo seeds (recorded by the result store so
        paired sweep cells can prove they shared seeds)."""
        return list(self._run_seeds)

    # ------------------------------------------------------------------ API
    def run_single_source(
        self, factories: Dict[str, PipelineFactory]
    ) -> ExperimentResult:
        """Run single-source pipelines: every factory is called once per
        Monte-Carlo run with that run's seed."""
        result = ExperimentResult()
        for run_seed in self._run_seeds:
            for label, factory in factories.items():
                pipeline = factory(run_seed)
                if not isinstance(pipeline, StagePipeline):
                    raise TypeError(
                        f"factory {label!r} must build a single-source StagePipeline"
                    )
                report = pipeline.run(self.points)
                result.add(label, evaluate_report(report, self.context))
        return result

    def run_multi_source(
        self,
        factories: Dict[str, PipelineFactory],
        num_sources: int,
        strategy: str = "random",
    ) -> ExperimentResult:
        """Run multi-source pipelines over a fresh random partition per run.

        The same partition is shared by all algorithms within a run so the
        comparison is paired, as in the paper.
        """
        check_positive_int(num_sources, "num_sources")
        result = ExperimentResult()
        for run_seed in self._run_seeds:
            indices = partition_dataset(
                self.points, num_sources, strategy=strategy, seed=run_seed
            )
            shards = [self.points[idx] for idx in indices]
            for label, factory in factories.items():
                pipeline = factory(run_seed)
                if not isinstance(pipeline, DistributedStagePipeline):
                    raise TypeError(
                        f"factory {label!r} must build a DistributedStagePipeline"
                    )
                report = pipeline.run(shards)
                result.add(label, evaluate_report(report, self.context))
        return result

    def run_registered(
        self,
        names: Sequence[str],
        num_sources: Optional[int] = None,
        strategy: str = "random",
        **overrides,
    ) -> ExperimentResult:
        """Run registry compositions by name (single- and multi-source mixed).

        Every name is resolved through :mod:`repro.core.registry`; the
        ``overrides`` (``coreset_size``, ``jl_dimension``, ``quantizer``, …)
        are forwarded to each factory, which picks the arguments its kind
        accepts.  An override no kind among ``names`` accepts raises
        ``TypeError`` (the silent-typo footgun: ``jl_dim=20`` used to run
        the wrong experiment without a warning); each factory is then
        invoked with only the subset its kind accepts.  ``k`` and
        ``seed`` are owned by the runner (the evaluation context is built
        for ``self.k``; seeds are the per-run Monte-Carlo seeds) and cannot
        be overridden here.  Multi-source compositions require
        ``num_sources``.
        """
        from repro.core import registry

        reserved = {"k", "seed"} & overrides.keys()
        if reserved:
            raise ValueError(
                f"run_registered controls {sorted(reserved)}; configure them "
                "on the ExperimentRunner instead"
            )

        accepted_union = {
            key for name in names for key in registry.accepted_kwargs(name)
        }
        unknown = sorted(set(overrides) - accepted_union)
        if unknown:
            raise TypeError(
                f"run_registered got overrides no requested pipeline kind "
                f"accepts: {unknown}; accepted across {sorted(set(names))}: "
                f"{sorted(accepted_union - {'k', 'seed'})}"
            )

        single: Dict[str, PipelineFactory] = {}
        multi: Dict[str, PipelineFactory] = {}

        def factory_for(name: str) -> PipelineFactory:
            accepted = registry.accepted_kwargs(name)
            kind_overrides = {
                key: value for key, value in overrides.items() if key in accepted
            }
            return lambda seed: registry.create_pipeline(
                name, k=self.k, seed=seed, **kind_overrides
            )

        for name in names:
            target = multi if registry.is_multi_source(name) else single
            target[name] = factory_for(name)
        if multi and num_sources is None:
            raise ValueError(
                f"num_sources is required for multi-source pipelines: {sorted(multi)}"
            )

        result = ExperimentResult()
        if single:
            for label, evals in self.run_single_source(single).evaluations.items():
                for evaluation in evals:
                    result.add(label, evaluation)
        if multi:
            multi_result = self.run_multi_source(
                multi, num_sources=num_sources, strategy=strategy
            )
            for label, evals in multi_result.evaluations.items():
                for evaluation in evals:
                    result.add(label, evaluation)
        return result
