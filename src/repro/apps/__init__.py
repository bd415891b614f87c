"""Applications: the paper's two (k-means, PCA) plus extension apps."""

from repro.apps.base import ReductionApp
from repro.apps.kmeans import (
    KMEANS_CHAPEL_SOURCE,
    KmeansResult,
    KmeansRunner,
    centroids_from_ro,
    centroids_to_chapel,
    kmeans_numpy_reference,
    kmeans_ro_layout,
    manual_fr_spec,
)
from repro.apps.pca import (
    PCA_COV_SOURCE,
    PCA_MEAN_SOURCE,
    PcaResult,
    PcaRunner,
    pca_numpy_reference,
)
from repro.apps.histogram import (
    HISTOGRAM_CHAPEL_SOURCE,
    HistogramResult,
    HistogramRunner,
)
from repro.apps.apriori import (
    APRIORI_CHAPEL_SOURCE,
    AprioriResult,
    AprioriRunner,
    generate_transactions,
)
from repro.apps.em import EM_CHAPEL_SOURCE, EmResult, EmRunner
from repro.apps.windowed import (
    WINDOWED_CHAPEL_SOURCE,
    WindowedResult,
    WindowedRunner,
)

__all__ = [
    "ReductionApp",
    "KMEANS_CHAPEL_SOURCE",
    "KmeansRunner",
    "KmeansResult",
    "kmeans_ro_layout",
    "kmeans_numpy_reference",
    "centroids_to_chapel",
    "centroids_from_ro",
    "manual_fr_spec",
    "PCA_MEAN_SOURCE",
    "PCA_COV_SOURCE",
    "PcaRunner",
    "PcaResult",
    "pca_numpy_reference",
    "HISTOGRAM_CHAPEL_SOURCE",
    "HistogramRunner",
    "HistogramResult",
    "APRIORI_CHAPEL_SOURCE",
    "AprioriRunner",
    "AprioriResult",
    "generate_transactions",
    "EM_CHAPEL_SOURCE",
    "EmRunner",
    "EmResult",
    "WINDOWED_CHAPEL_SOURCE",
    "WindowedRunner",
    "WindowedResult",
]
