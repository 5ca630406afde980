"""Core data model: partial rankings (bucket orders) and refinement algebra."""

from repro.core.codec import DomainCodec
from repro.core.partial_ranking import Item, PartialRanking
from repro.core.refine import (
    common_full_ranking,
    full_refinements,
    is_refinement,
    star,
    star_chain,
)
from repro.core.topk import (
    footrule_location_parameter,
    project_to_active_domain,
    top_k_from_scores,
)

__all__ = [
    "Item",
    "PartialRanking",
    "DomainCodec",
    "star",
    "star_chain",
    "is_refinement",
    "full_refinements",
    "common_full_ranking",
    "top_k_from_scores",
    "project_to_active_domain",
    "footrule_location_parameter",
]
