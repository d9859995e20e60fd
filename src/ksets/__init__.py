"""Kochen-Specker contextual set toolkit: MMP hypergraph generation,
filtering, classification, and statistical surveys."""

from .canon import (
    CanonicalForm,
    canonical_form,
    canonical_labeling,
    dedupe_isomorphic,
)
from .cell600 import (
    Ray,
    RaySet600,
    build_600cell,
    inner_product,
    verify_assignment,
)
from .coloring import (
    Coloring,
    has_parity_proof,
    is_colorable,
    is_critical,
    is_ks,
)
from .layout import LayoutConfig, emit_layout
from .loops import (
    EdgeClassification,
    Loop,
    biggest_loop,
    classify_edges,
    format_annotated,
    loop_arrangements,
)
from .mmp import (
    Hypergraph,
    LENIENT,
    MmpError,
    STRICT,
    hypergraph_from_edges,
    is_connected,
    parse_mmp,
    read_mmp_file,
    renormalize,
    serialize_mmp,
    validate_mmp,
    write_mmp_file,
)
from .stats import (
    ConfidenceInterval,
    CouponEstimate,
    confidence_bounds,
    coupon_mle,
    reg_inc_beta,
    reg_inc_beta_inv,
)
from .strip import (
    SamplerSeed,
    StripPlan,
    colex_combinations,
    colex_rank,
    colex_unrank,
    enumerate_subsets,
    sample_subsets,
    strip_one_each,
)
from .survey import (
    StageResult,
    SurveyConfig,
    calibrate_increment,
    run_survey,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
