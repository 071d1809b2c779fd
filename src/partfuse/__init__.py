"""partfuse: part-panoptic label fusion, PQ/PartPQ evaluation, and
unsupervised training-label generation for logit tensors and raw sensor
data."""

from .containers import (
    InstanceProposal,
    LabelTriple,
    LogitStack,
    PanopticSegment,
    derive_segments,
)
from .errors import FormatError, PartfuseError, ValidationError
from .fusion import (
    FusionParams,
    agreement_part_sem,
    agreement_sem_inst,
    fuse,
    fuse_baseline,
    fuse_part_panoptic,
    panoptic_fuse,
    part_wise_fuse,
    semantic_wise_fuse,
    sigmoid_rescaled,
)
from .metrics import (
    MatchResult,
    MetricReport,
    aggregate_dataset,
    match_segments,
    part_iou,
    part_pq,
)
from .taxonomy import ClassTaxonomy, load_taxonomy, validate_taxonomy

__version__ = "0.1.0"

__all__ = [
    "ClassTaxonomy",
    "FormatError",
    "FusionParams",
    "InstanceProposal",
    "LabelTriple",
    "LogitStack",
    "MatchResult",
    "MetricReport",
    "PanopticSegment",
    "PartfuseError",
    "ValidationError",
    "agreement_part_sem",
    "agreement_sem_inst",
    "aggregate_dataset",
    "derive_segments",
    "fuse",
    "fuse_baseline",
    "fuse_part_panoptic",
    "load_taxonomy",
    "match_segments",
    "panoptic_fuse",
    "part_iou",
    "part_pq",
    "part_wise_fuse",
    "semantic_wise_fuse",
    "sigmoid_rescaled",
    "validate_taxonomy",
    "__version__",
]
