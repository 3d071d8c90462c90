"""Core: the stage engine, the pipeline registry, and the paper's pipelines.

The execution skeleton shared by every algorithm lives in
:mod:`repro.core.engine` (:class:`StagePipeline` /
:class:`DistributedStagePipeline`): timing, network metering, server-side
weighted k-means, and center lift-back through the recorded DR inverses.
Algorithms are declarative compositions of the stages in
:mod:`repro.stages`: each is one row of the composition table in
:mod:`repro.core.registry`, which builds its pipeline class.  The paper's
eight rows are exported under their classic names.

Single-source pipelines (Section 4):

* :class:`NoReductionPipeline` — transmit the raw data (the "NR" baseline).
* :class:`FSSPipeline` — the FSS baseline (Theorem 4.1).
* :class:`JLFSSPipeline` — Algorithm 1 (DR + CR).
* :class:`FSSJLPipeline` — Algorithm 2 (CR + DR).
* :class:`JLFSSJLPipeline` — Algorithm 3 (DR + CR + DR).

Multi-source pipelines (Section 5), operating on an
:class:`~repro.distributed.cluster.EdgeCluster`:

* :class:`DistributedNoReductionPipeline` — raw-data baseline.
* :class:`BKLWPipeline` — the BKLW baseline (Theorem 5.3).
* :class:`JLBKLWPipeline` — Algorithm 4 (Theorem 5.4).

All pipelines accept an optional rounding quantizer, giving the +QT variants
of Section 6, and return a :class:`PipelineReport` with the centers (in the
original space) plus the communication and computation accounting.

:mod:`repro.core.configuration` implements the quantizer-configuration
optimizer of Section 6.3 and :mod:`repro.core.theory` the closed-form
communication/complexity scalings of Table 2.
"""

from repro.core.report import PipelineReport
from repro.core.engine import (
    StagePipeline,
    DistributedStagePipeline,
    WireSummary,
    encode_for_wire,
)
from repro.core.streaming import (
    StreamingEngine,
    StreamingReport,
    QuerySnapshot,
)
from repro.core.registry import (
    PipelineSpec,
    register_pipeline,
    create_pipeline,
    registered_names,
    registered_specs,
    get_spec,
    is_multi_source,
    is_streaming,
    make_stage_pipeline,
    NoReductionPipeline,
    FSSPipeline,
    JLFSSPipeline,
    FSSJLPipeline,
    JLFSSJLPipeline,
    DistributedNoReductionPipeline,
    BKLWPipeline,
    JLBKLWPipeline,
)
from repro.core.configuration import (
    QuantizerConfiguration,
    configure_joint_reduction,
    approximation_error_bound,
    communication_cost_model,
)
from repro.core.theory import TheoreticalCosts, theoretical_costs, THEORY_TABLE_ROWS

__all__ = [
    "PipelineReport",
    "StagePipeline",
    "DistributedStagePipeline",
    "StreamingEngine",
    "StreamingReport",
    "QuerySnapshot",
    "WireSummary",
    "encode_for_wire",
    "NoReductionPipeline",
    "FSSPipeline",
    "JLFSSPipeline",
    "FSSJLPipeline",
    "JLFSSJLPipeline",
    "DistributedNoReductionPipeline",
    "BKLWPipeline",
    "JLBKLWPipeline",
    "PipelineSpec",
    "register_pipeline",
    "create_pipeline",
    "registered_names",
    "registered_specs",
    "get_spec",
    "is_multi_source",
    "is_streaming",
    "make_stage_pipeline",
    "QuantizerConfiguration",
    "configure_joint_reduction",
    "approximation_error_bound",
    "communication_cost_model",
    "TheoreticalCosts",
    "theoretical_costs",
    "THEORY_TABLE_ROWS",
]
