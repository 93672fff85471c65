"""Exact colored HOMFLY polynomials of torus links via skein calculus.

The package computes colored HOMFLY polynomials of torus links from the
character/plethysm expansion over the Schur basis of the annulus skein,
evaluates special polynomials by exact symbolic limits, and cross-validates
uncolored values against an independent Hecke-algebra Markov trace.
"""

from .characters import (
    CharacterTable,
    character,
    character_table,
    hook_character_identity,
)
from .exact import (
    LaurentQT,
    RationalQT,
    TruncSeries,
    canonical_text,
    delta,
    expand_series,
    laurent_from_json,
    laurent_to_json,
    limit_at_one,
    q_bracket,
    substitute,
    t_bracket,
    truncated_series,
)
from .hecke import (
    BraidWord,
    HeckeElement,
    element_of_braid,
    framed_homfly_of_closure,
    markov_trace,
    normalized_homfly_of_closure,
    torus_braid_word,
)
from .partitions import EMPTY, Partition, PartitionVector, partitions_of
from .schur import (
    SchurExpansion,
    plethysm_coefficients,
    unknot_value,
)
from .special import (
    SpecialPolynomial,
    alexander_torus,
    delta_basis,
    format_delta_basis,
    special_H,
    special_delta,
)
from .torus import (
    ColoredInvariant,
    TorusLinkSpec,
    colored_homfly,
    colored_homfly_torus,
    uncolored_homfly_torus_knot,
)
from .verify import (
    GridConfig,
    VerificationReport,
    run_theorem,
    verify_lowest_term,
    verify_permutation_parity,
    verify_symmetry_neg_q_inverse,
    verify_symmetry_q_inverse,
)

__all__ = [
    "BraidWord",
    "CharacterTable",
    "ColoredInvariant",
    "EMPTY",
    "GridConfig",
    "HeckeElement",
    "LaurentQT",
    "Partition",
    "PartitionVector",
    "RationalQT",
    "SchurExpansion",
    "SpecialPolynomial",
    "TorusLinkSpec",
    "TruncSeries",
    "VerificationReport",
    "alexander_torus",
    "canonical_text",
    "character",
    "character_table",
    "colored_homfly",
    "colored_homfly_torus",
    "delta",
    "delta_basis",
    "element_of_braid",
    "expand_series",
    "format_delta_basis",
    "framed_homfly_of_closure",
    "hook_character_identity",
    "laurent_from_json",
    "laurent_to_json",
    "limit_at_one",
    "markov_trace",
    "normalized_homfly_of_closure",
    "partitions_of",
    "plethysm_coefficients",
    "q_bracket",
    "run_theorem",
    "special_H",
    "special_delta",
    "substitute",
    "t_bracket",
    "torus_braid_word",
    "truncated_series",
    "uncolored_homfly_torus_knot",
    "unknot_value",
    "verify_lowest_term",
    "verify_permutation_parity",
    "verify_symmetry_neg_q_inverse",
    "verify_symmetry_q_inverse",
]
