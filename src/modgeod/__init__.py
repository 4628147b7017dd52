"""Exact enumeration, counting and geometry of cyclic sign-word classes.

Conjugacy classes of alternating words in the rank-(2,3) free product are
necklaces of +-1 signs; this package counts them exactly (all classes,
primitive classes, reciprocal classes, bounded-run subfamilies), realises the
structural bijections between those families and compositions, and computes
the trace/length/cusp-depth geometry of their integer matrix images.

Length bookkeeping: a word with t sign entries stands for a group word of
length 2t; reciprocal normal forms have 2t entries, i.e. group length 4t.
"""

from .binwords import (
    BinaryWord,
    Composition,
    HalfTurnWord,
    canonical_form,
    from_composition,
    half_turn_partner,
    is_half_turn,
    max_cyclic_run,
    primitive_root,
    rotate,
    runs_of,
)
from .counting import (
    AlphaData,
    PrecisionLimitError,
    alpha,
    bounded_compositions,
    closed_form_compositions,
    count,
    count_series,
    cumulative,
    growth_target,
    lowlying_lower_bound,
    necklace_count,
    primitive_class_count,
    reciprocal_count,
)
from .enumeration import (
    ContractViolationError,
    canonical_reciprocal,
    classes,
    lower_bound_witnesses,
    phi,
    phi_inverse,
    power_map,
    reciprocal_classes,
)
from .geometry import (
    DepthReport,
    ProjectiveMatrix,
    apex_height,
    audit_lemma71,
    classify,
    encode,
    geodesic_length,
    in_thick_part,
    max_depth,
)

__version__ = "0.1.0"
