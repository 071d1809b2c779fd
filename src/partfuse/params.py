"""Fusion settings that the command line parses before any array work.

Kept apart from ``fusion`` so that building the parser, ``--help`` and
``report`` import no numpy.  ``fusion`` re-exports every name here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

STRATEGIES = ("partpanoptic", "none", "consensus", "topdown")


@dataclass(frozen=True)
class FusionParams:
    """Tunables of the panoptic stage; defaults follow common fusion practice."""

    confidence_min: float = 0.5
    overlap_discard_ratio: float = 0.5
    min_instance_area: int = 64
    mask_logit_threshold: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.confidence_min <= 1.0:
            raise ValidationError("confidence_min must be in [0, 1]")
        if not 0.0 < self.overlap_discard_ratio <= 1.0:
            raise ValidationError("overlap_discard_ratio must be in (0, 1]")
        if self.min_instance_area < 0:
            raise ValidationError("min_instance_area must be >= 0")
        if not math.isfinite(self.mask_logit_threshold):
            raise ValidationError("mask_logit_threshold must be finite")
