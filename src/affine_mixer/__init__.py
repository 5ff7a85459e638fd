"""Mixing experiments for affine recursions X_{n+1} = A X_n + B_n (mod p).

Exact distribution evolution over Z_p^k, Fourier product bounds on the
distance to uniform, closed-form lower-bound certificates, spectral regime
classification of the multiplier matrix, and digit-block statistics.
"""

from .algebra import (
    IntMatrix,
    IntPolynomial,
    Regime,
    SpectralProfile,
    canonical_eigenvalue_order,
    char_poly,
    classify_regime,
    det_int,
    eigenvalues,
    factor_int_poly,
    inf_norm,
    mat_pow,
    minimal_poly,
    root_of_integer_order,
    verify_spectral_identities,
)
from .digitlab import (
    BlockCensus,
    DigitBlock,
    base_digits,
    block_census,
    default_block_length,
    generalized_alternations,
)
from .errors import (
    AffineMixerError,
    ConfigInvalid,
    FactorNonpositive,
    GammaTooLarge,
    InsufficientData,
    InvariantSubspace,
    ModulusNotCoprime,
    NoTorsion,
    NonConvergence,
    OrderMismatch,
    OutOfRange,
    SingularMatrix,
    StateSpaceTooLarge,
    ZeroFrequency,
)
from .evolution import (
    ChainSpec,
    StateDistribution,
    evolve,
    evolve_iter,
    mixing_time,
    simulate,
    state_cap,
    step_exact,
    tv_distance,
)
from .fourier import (
    BoundsReport,
    FrequencyVector,
    GammaCertificate,
    RhoCertificate,
    bounds_table,
    certificate_gamma,
    certificate_rho,
    find_torsion,
    lower_bound_at,
    lower_bound_best,
    mu_hat,
    pn_hat_sq,
    product_scan,
    transform_of_distribution,
    upper_bound,
)
from .increments import (
    IncrementDistribution,
    SupportBasis,
    admissible_modulus,
    support_basis,
)
from .cli import ExperimentConfig, FitResult, SweepRow, fit_exponent, mixing_sweep, run

__version__ = "0.1.0"
