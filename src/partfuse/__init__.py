"""partfuse: part-panoptic label fusion, PQ/PartPQ evaluation, and
unsupervised training-label generation for logit tensors and raw sensor
data.

The public names below load on first use (PEP 562), so importing the
package, or the command line through it, imports no numpy.  The package
keeps no binding of its own to them: each access reads the defining
module.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it, in the order of __all__
_EXPORTS = {
    "ClassTaxonomy": "taxonomy",
    "FormatError": "errors",
    "FusionParams": "params",
    "InstanceProposal": "containers",
    "LabelTriple": "containers",
    "LogitStack": "containers",
    "MatchResult": "metrics",
    "MetricReport": "metrics",
    "PanopticSegment": "containers",
    "PartfuseError": "errors",
    "ValidationError": "errors",
    "agreement_part_sem": "fusion",
    "agreement_sem_inst": "fusion",
    "aggregate_dataset": "metrics",
    "derive_segments": "containers",
    "fuse": "fusion",
    "load_taxonomy": "taxonomy",
    "match_segments": "metrics",
    "panoptic_fuse": "fusion",
    "part_iou": "metrics",
    "part_pq": "metrics",
    "part_wise_fuse": "fusion",
    "semantic_wise_fuse": "fusion",
    "sigmoid_rescaled": "fusion",
    "validate_taxonomy": "taxonomy",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
