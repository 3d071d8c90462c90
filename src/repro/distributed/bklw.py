"""BKLW — the distributed FSS baseline (paper ref. [27], Algorithm 1).

BKLW = disPCA followed by disSS on the dimension-reduced shards.  The paper
uses it as the state-of-the-art baseline for the multi-source setting
(Theorem 5.3) and improves on it by prepending a JL projection (Algorithm 4).

When used as a *CR method* inside Algorithm 4 (the "BKLW-based CR method" of
Lemma 5.1), only the two coreset-construction steps run — the final k-means
solve is left to the caller's server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cr.coreset import Coreset
from repro.distributed.dispca import DisPCAResult, DistributedPCA
from repro.distributed.disss import DisSSResult, DistributedSensitivitySampler, disss_sample_size
from repro.distributed.node import DataSourceNode
from repro.distributed.server import EdgeServer
from repro.quantization.rounding import RoundingQuantizer
from repro.utils.validation import check_fraction, check_positive_int


@dataclass
class BKLWResult:
    """Outcome of the BKLW coreset construction.

    Attributes
    ----------
    coreset:
        The merged coreset held at the server.
    dispca:
        Result of the distributed PCA stage.
    disss:
        Result of the distributed sensitivity sampling stage.
    transmitted_scalars:
        Total uplink scalars of both stages.
    """

    coreset: Coreset
    dispca: DisPCAResult
    disss: DisSSResult

    @property
    def transmitted_scalars(self) -> int:
        return self.dispca.transmitted_scalars + self.disss.transmitted_scalars


class BKLWCoreset:
    """BKLW coreset construction (disPCA + disSS).

    Parameters
    ----------
    k:
        Number of clusters.
    epsilon:
        Accuracy parameter shared by both stages.
    delta:
        Failure probability (used only when the sample budget is derived).
    pca_rank:
        Override for the disPCA rank ``t1 = t2``.
    total_samples:
        Override for the disSS global sample budget.
    quantizer:
        Optional rounding quantizer applied to the outgoing summaries
        (BKLW+QT of Section 6).
    jobs:
        Worker threads for the per-source compute steps of both stages
        (results are identical for any value).
    """

    def __init__(
        self,
        k: int,
        epsilon: float = 1.0 / 3.0,
        delta: float = 0.1,
        pca_rank: Optional[int] = None,
        total_samples: Optional[int] = None,
        quantizer: Optional[RoundingQuantizer] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.k = check_positive_int(k, "k")
        self.epsilon = check_fraction(epsilon, "epsilon", high=1.0 / 3.0, inclusive_high=True)
        self.delta = check_fraction(delta, "delta")
        self.pca_rank = pca_rank
        self.total_samples = total_samples
        self.quantizer = quantizer
        self.jobs = jobs

    def resolved_samples(self, sources: Sequence[DataSourceNode]) -> int:
        if self.total_samples is not None:
            return check_positive_int(self.total_samples, "total_samples")
        d = sources[0].dimension
        m = len(sources)
        return disss_sample_size(self.k, d, m, self.epsilon, self.delta)

    def build(self, sources: Sequence[DataSourceNode], server: EdgeServer) -> BKLWResult:
        """Run disPCA then disSS over the (possibly JL-projected) shards."""
        if not sources:
            raise ValueError("BKLW requires at least one data source")

        dispca = DistributedPCA(
            k=self.k, epsilon=self.epsilon, rank=self.pca_rank, jobs=self.jobs
        )
        dispca_result = dispca.run(sources, server)

        disss = DistributedSensitivitySampler(
            k=self.k,
            total_samples=self.resolved_samples(sources),
            quantizer=self.quantizer,
            jobs=self.jobs,
        )
        disss_result = disss.run(sources, server)

        return BKLWResult(
            coreset=disss_result.coreset,
            dispca=dispca_result,
            disss=disss_result,
        )
