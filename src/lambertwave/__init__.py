"""Band-limited orthonormal wavelets with Lambert-W decay envelopes.

Construction chain: weight sequences and their associated function
(`gevrey`), the Lambert W evaluator backing the asymptotics (`lambert`),
the convolution-cascade cutoff (`mollifier`), the frequency-domain bell and
wavelet synthesis (`bell`), and the numerical certification suite
(`verify`).  The `cli` module drives the full pipeline and emits CSV/JSON
artifacts.
"""

from .bell import (
    BellEvaluator,
    LatticeSynthesis,
    WaveletBuild,
    build_wavelet,
    eval_psi_point,
    synthesize_psi_lattice,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InputError,
    LambertwaveError,
    ResolutionError,
    VerificationError,
)
from .gevrey import (
    AssocFnReport,
    SequenceParams,
    assoc_t_exact,
    lambert_regressor,
    log_m,
)
from .grids import GridFunction, GridSpec
from .lambert import lambert_w0
from .mollifier import (
    DerivativeAuditReport,
    MollifierBuild,
    ScaleSequence,
    build_mollifier,
    cascade_scales,
    derivative_bound_audit,
)
from .verify import (
    CompletenessReport,
    DecayFitReport,
    DerivativeDecayRow,
    DyadicReport,
    EnvelopeTable,
    GramReport,
    MixedBoundReport,
    completeness_check,
    decay_envelope,
    derivative_decay_check,
    dyadic_sum_check,
    envelope_window,
    fit_decay,
    gaussian_spectrum,
    gram_matrix,
    inner_product,
    mixed_bound_audit,
)

__version__ = "0.1.0"
