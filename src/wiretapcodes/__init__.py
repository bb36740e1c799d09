"""Secure nested (coset) codes for type II wiretap channels.

A numpy/scipy library for building binary nested code pairs, simulating
BEC/BSC/BI-AWGN eavesdropper channels and their BEC-embedding degradations,
locating noise thresholds, and estimating message equivocation exactly (on
the BEC) or through degradation and Fano bounds (noisy channels), plus a
small batch CLI that emits reproducible CSV experiment reports.
"""

from .bitlinalg import (
    BitMatrix,
    mat_vec,
    nullspace_basis,
    rank,
    right_inverse,
    rref,
    vec_mat,
)
from .capacity import (
    RateEquivocationPoint,
    RegionPolygon,
    achievable_region,
    binary_entropy,
    c_biawgn,
    capacity_equivocation_region,
    q_function,
    secrecy_gap,
    thangaraj_baseline,
)
from .channels import (
    BEC,
    BIAWGN,
    BSC,
    ChannelModel,
    awgn_degraded_transmit,
    awgn_llr,
    bec_transmit,
    biawgn_transmit,
    bsc_degraded_transmit,
    bsc_transmit,
    erasure_rate_for_snr,
    modulate,
)
from .codes import (
    DegreeDistribution,
    LinearCode,
    NestedCodePair,
    dual,
    from_parity_check,
    nested_pair_from_coarse,
    read_alist,
    regular_ldpc,
    write_alist,
)
from .decoders import bp_decode_awgn, peeling_decode_bec
from .secrecy import (
    CosetCodeword,
    EquivocationEstimate,
    approach1_equivocation_bound,
    coset_word,
    encode,
    equivocation_lb,
    exact_equivocation_bec,
    main_decode,
    mc_equivocation_bec,
)
from .thresholds import (
    ThresholdResult,
    bec_bp_threshold,
    check_secrecy_condition,
    de_residual,
    empirical_bp_threshold_awgn,
    wilson_interval,
)

__version__ = "0.1.0"
