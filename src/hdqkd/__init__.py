"""High-dimensional QKD design and certification toolkit.

Subpackages:

* mub       construction/verification of mutually unbiased bases
* optics    angular-spectrum propagation and multi-plane converter design
* protocol  measurement statistics, noise models and session simulation
* keyrate   analytic secret-key-rate bounds and error thresholds
* cli       command-line front end (also installed as `hdqkd`)
"""

__version__ = "0.1.0"

from . import errors, keyrate, mub, optics, protocol  # noqa: F401
from .keyrate import (  # noqa: F401
    KeyRateReport,
    SubsetStats,
    entropy_block_biased,
    rate_curve,
    rate_depolarizing,
    rate_two_mub,
    shannon_hd,
    subset_stats,
    threshold,
)
from .mub import (  # noqa: F401
    Basis,
    check_mub_pair,
    computational_basis,
    dft_basis,
    full_mub_set,
    sqrt_mub_pair,
    wh_basis,
)
from .optics import (  # noqa: F401
    ApertureLayout,
    GridSpec,
    OpticalField,
    PhaseMaskStack,
    SorterMetrics,
    make_aperture_modes,
    propagate,
    sorter_metrics,
    sorter_problem,
    transfer_matrix,
    wavefront_match,
)
from .protocol import (  # noqa: F401
    CountTable,
    NoiseDecomposition,
    ProbabilityTable,
    SessionRecord,
    apply_noise,
    decompose_errors,
    ideal_prob_table,
    normalize_counts,
    sample_counts,
    simulate_session,
)
