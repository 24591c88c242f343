"""Link-level BER laboratory for uplink NOMA with successive
interference cancellation: exact closed-form average BER over Rayleigh
fading, Monte Carlo validation, and sum-BER power allocation."""

from .analytic import (ber_user, ber_user_qam, ber_user_qpsk,
                       conditional_ber_user, effective_noise_variance,
                       sep_table_user, stage_bers, stage_bers_grid, sum_ber)
from .channel import StreamKey, erlang_pdf, generator, sample_channel, sample_noise
from .constellation import (Constellation, MagnitudeClass, build_rect_qam,
                            hamming_table, magnitude_classes, neighbor_count)
from .detectors import (SystemModel, UserProfile, jmld_detect, jmld_detect_batch,
                        joint_symbol_tuples, mrc_sic_detect, sic_detect_batch,
                        superimpose)
from .errors import CapacityError, ConfigError, OptimizationError
from .kernels import (cell_probability_closed, cell_probability_quadrature,
                      erlang_fade_average, erlang_fade_quadrature, q_exact,
                      qpsk_sep_triplet)
from .montecarlo import (BerCurve, BerEstimate, StopRule, TolerancePolicy,
                         ValidationReport, compare_analytic, estimate_ber, sweep)
from .poweralloc import PaConfig, PaResult, optimize_powers, sum_ber_db_cost

__version__ = "0.1.0"

__all__ = [
    "BerCurve", "BerEstimate", "CapacityError", "ConfigError", "Constellation",
    "MagnitudeClass", "OptimizationError", "PaConfig", "PaResult", "StopRule",
    "StreamKey", "SystemModel", "TolerancePolicy", "UserProfile",
    "ValidationReport", "ber_user", "ber_user_qam", "ber_user_qpsk",
    "build_rect_qam", "cell_probability_closed", "cell_probability_quadrature",
    "compare_analytic", "conditional_ber_user", "effective_noise_variance",
    "erlang_fade_average", "erlang_fade_quadrature", "erlang_pdf",
    "estimate_ber", "generator", "hamming_table", "jmld_detect",
    "jmld_detect_batch", "joint_symbol_tuples", "magnitude_classes",
    "mrc_sic_detect", "neighbor_count", "optimize_powers", "q_exact",
    "qpsk_sep_triplet", "sample_channel", "sample_noise", "sep_table_user",
    "sic_detect_batch", "stage_bers", "stage_bers_grid", "sum_ber",
    "sum_ber_db_cost", "superimpose",
]
