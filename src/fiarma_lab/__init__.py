"""Operator-valued fractional ARMA processes on weighted grids."""

__version__ = "0.1.0"

from .hilbert import (
    HilbertGrid,
    LinearOperator,
    NotPSDError,
    from_kernel,
    identity,
    kernel_of,
    operator_norm,
    sqrt_psd,
)
from .transfer import (
    CoefficientSequence,
    FracIntegrationSpec,
    NotNormalError,
    OperatorPolynomial,
    SingularTransferError,
    ar_inverse_laurent,
    binomial_ma_coeffs,
    check_invertible_on_circle,
    duker_decomposition,
    envelope_bounds,
    frac_ma_coeffs,
    power_law_weights,
)
from .spectral import (
    ArmaModel,
    FiarmaModel,
    PowerLawModel,
    SpectralDensityGrid,
    autocov_sequence,
    density_frequencies,
    empirical_autocov,
    fiarma_spectral_density,
    fourier_frequencies,
    local_factorization,
    periodogram,
)
from .existence import (
    ExistenceRefusal,
    ExistenceReport,
    IntegralReport,
    check_conditions,
    check_duker_conditions,
    existence_integral,
)
from .simulate import (
    DecompositionCheck,
    NonCausalError,
    SampledPath,
    SimConfig,
    simulate_fiarma,
    verify_longmemory_decomposition,
)
from .config import ConfigError, ModelConfig, RunConfig, parse_config
from .dataio import PathFormatError, read_path, write_path
