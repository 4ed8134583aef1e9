"""Analog subspace codes over R and C.

Subspace geometry on orthonormal bases, finite-field array arithmetic,
character-polynomial code constructions, operator-channel models,
minimum-distance decoding with provable guarantees, and rate/distance bound
calculators, plus a CLI (`subspace-codes`) wrapping them.
"""

from .bounds import (barg_lower, barg_upper, binary_entropy, blokh_zyablov_rate,
                     gv_binary_delta, random_coding_rate, shannon_lower,
                     zyablov_delta)
from .channel import (ChannelSpec, MatrixChannelSpec, apply_matrix_channel,
                      apply_noisy_operator_channel, apply_noisy_operator_channel_block,
                      apply_operator_channel, channel_draw_size, erase,
                      general_perturbation_bound, perturbation_bound,
                      random_error_subspace, rotate, rq_factorize)
from .codes import (CodeParameters, CPCodeSpec, SubspaceCode, binary_to_lines,
                    code_parameters, complex_to_real_double, cp_construct,
                    cp_distance_bound, cp_max_k_for_delta, cp_min_distance, cp_monomial_set,
                    cp_simplified_bound, dual_code, line_delta_from_hamming,
                    load_code, min_distance_exhaustive, random_ensemble_code,
                    save_code)
from .decoder import (Decoded, DecodeResult, decode, decode_block, guarantee_chordal,
                      guarantee_noiseless, guarantee_noisy, guarantee_noisy_slack)
from .finitefield import FiniteField, is_prime
from .subspaces import (Subspace, chordal_distance, complement, direct_sum,
                        distance, orthonormalize, principal_angles,
                        random_subspace)

__version__ = "0.1.0"
