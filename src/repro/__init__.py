"""repro — Communication-efficient k-means for edge-based machine learning.

A faithful, laptop-scale reproduction of *Communication-efficient k-Means for
Edge-based Machine Learning* (ICDCS 2020 / arXiv:2102.04282): data sources
send small summaries — built by composing dimensionality reduction (JL
projections, PCA), cardinality reduction (sensitivity-sampling coresets,
FSS), and rounding-based quantization — to an edge server that solves
weighted k-means on the summary and lifts the centers back.

Quickstart
----------
>>> from repro import JLFSSJLPipeline, make_gaussian_mixture
>>> points, _, _ = make_gaussian_mixture(n=2000, d=100, k=5, seed=0)
>>> pipeline = JLFSSJLPipeline(k=5, seed=0)
>>> report = pipeline.run(points)
>>> report.centers.shape
(5, 100)

See ``examples/`` for end-to-end single-source, multi-source, and
quantization-sweep scenarios, and ``benchmarks/`` for the scripts that
regenerate every table and figure of the paper's evaluation section.
"""

from repro.core import (
    PipelineReport,
    StagePipeline,
    DistributedStagePipeline,
    StreamingEngine,
    StreamingReport,
    QuerySnapshot,
    NoReductionPipeline,
    FSSPipeline,
    JLFSSPipeline,
    FSSJLPipeline,
    JLFSSJLPipeline,
    DistributedNoReductionPipeline,
    BKLWPipeline,
    JLBKLWPipeline,
    PipelineSpec,
    register_pipeline,
    create_pipeline,
    registered_names,
    make_stage_pipeline,
    QuantizerConfiguration,
    configure_joint_reduction,
    TheoreticalCosts,
    theoretical_costs,
)
from repro.stages import (
    Stage,
    SourceState,
    StageContext,
    StageEffect,
    JLStage,
    PCAStage,
    FSSStage,
    SensitivityStage,
    UniformStage,
    QuantizeStage,
    DistributedStage,
    SharedJLStage,
    BKLWStage,
    RawGatherStage,
)
from repro.cr import Coreset, FSSCoreset, SensitivitySampler, UniformCoreset
from repro.dr import JLProjection, PCAProjection, jl_target_dimension
from repro.quantization import RoundingQuantizer, IdentityQuantizer
from repro.kmeans import WeightedKMeans, kmeans_cost, weighted_kmeans_cost
from repro.distributed import (
    EdgeCluster,
    SimulatedNetwork,
    NetworkCondition,
    LinkModel,
    FaultPlan,
    DeliveryError,
    NETWORK_PRESETS,
)
from repro.datasets import (
    make_gaussian_mixture,
    make_mnist_like,
    make_neurips_like,
    load_benchmark_dataset,
    iter_batches,
    make_drifting_stream,
)
from repro.streaming import CoresetTree, StreamingServer, StreamingSource
from repro.metrics import ExperimentRunner, EvaluationContext, evaluate_report
from repro.api import (
    PipelineConfig,
    DataSpec,
    NetworkSpec,
    ExperimentSpec,
    SweepSpec,
    load_spec,
    dump_spec,
    run_experiment,
    run_sweep,
    ResultStore,
    RunRecord,
)

__version__ = "1.2.0"

__all__ = [
    "PipelineReport",
    "StagePipeline",
    "DistributedStagePipeline",
    "StreamingEngine",
    "StreamingReport",
    "QuerySnapshot",
    "CoresetTree",
    "StreamingSource",
    "StreamingServer",
    "PipelineSpec",
    "register_pipeline",
    "create_pipeline",
    "registered_names",
    "make_stage_pipeline",
    "Stage",
    "SourceState",
    "StageContext",
    "StageEffect",
    "JLStage",
    "PCAStage",
    "FSSStage",
    "SensitivityStage",
    "UniformStage",
    "QuantizeStage",
    "DistributedStage",
    "SharedJLStage",
    "BKLWStage",
    "RawGatherStage",
    "NoReductionPipeline",
    "FSSPipeline",
    "JLFSSPipeline",
    "FSSJLPipeline",
    "JLFSSJLPipeline",
    "DistributedNoReductionPipeline",
    "BKLWPipeline",
    "JLBKLWPipeline",
    "QuantizerConfiguration",
    "configure_joint_reduction",
    "TheoreticalCosts",
    "theoretical_costs",
    "Coreset",
    "FSSCoreset",
    "SensitivitySampler",
    "UniformCoreset",
    "JLProjection",
    "PCAProjection",
    "jl_target_dimension",
    "RoundingQuantizer",
    "IdentityQuantizer",
    "WeightedKMeans",
    "kmeans_cost",
    "weighted_kmeans_cost",
    "EdgeCluster",
    "SimulatedNetwork",
    "NetworkCondition",
    "LinkModel",
    "FaultPlan",
    "DeliveryError",
    "NETWORK_PRESETS",
    "make_gaussian_mixture",
    "make_mnist_like",
    "make_neurips_like",
    "load_benchmark_dataset",
    "iter_batches",
    "make_drifting_stream",
    "ExperimentRunner",
    "EvaluationContext",
    "evaluate_report",
    "PipelineConfig",
    "DataSpec",
    "NetworkSpec",
    "ExperimentSpec",
    "SweepSpec",
    "load_spec",
    "dump_spec",
    "run_experiment",
    "run_sweep",
    "ResultStore",
    "RunRecord",
    "__version__",
]
