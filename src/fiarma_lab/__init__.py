"""Operator-valued fractional ARMA processes on weighted grids."""

__version__ = "0.1.0"

from .hilbert import (
    BranchCutError,
    HilbertGrid,
    LinearOperator,
    NormalDecomposition,
    NotNormalError,
    NotPSDError,
    adjoint,
    from_kernel,
    identity,
    is_normal,
    kernel_of,
    normal_decompose,
    normal_frame,
    operator_exp_batch,
    operator_norm,
    operator_power_one_minus_z,
    schatten_norm,
    sqrt_psd,
    zero_operator,
)
from .transfer import (
    CoefficientSequence,
    FracIntegrationSpec,
    OperatorPolynomial,
    SingularTransferError,
    ar_inverse_laurent,
    arma_transfer,
    binomial_ma_coeffs,
    check_invertible_on_circle,
    duker_decomposition,
    envelope_bounds,
    eval_poly_ar,
    eval_poly_ma,
    frac_ma_coeffs,
    frac_transfer,
    power_law_weights,
)
from .spectral import (
    ArmaModel,
    AutocovarianceSequence,
    FiarmaModel,
    PowerLawModel,
    SpectralDensityGrid,
    arma_spectral_density,
    autocov_from_density,
    autocov_sequence,
    cross_spectral_kernel,
    density_frequencies,
    empirical_autocov,
    fiarma_spectral_density,
    fourier_frequencies,
    local_factorization,
    periodogram,
)
from .existence import (
    DukerReport,
    ExistenceRefusal,
    ExistenceReport,
    IntegralReport,
    check_conditions,
    check_duker_conditions,
    existence_integral,
    sigma_w,
)
from .simulate import (
    DecompositionCheck,
    NonCausalError,
    SampledPath,
    SimConfig,
    gaussian_white_noise,
    simulate_arma,
    simulate_duker,
    simulate_fiarma,
    verify_longmemory_decomposition,
)
from .config import ConfigError, ModelConfig, RunConfig, parse_config
from .dataio import PathFormatError, read_path, write_path
