"""Spectral tomography toolkit: simulation, joint reconstruction and
unmixing solvers, baselines, and evaluation."""

from .tomo import Grid2D, ParallelGeometry, TomoOperator, equispaced_angles
from .phantoms import MaterialMap, disks, mixed_disks, shepp_logan
from .projections import (in_capped_rows, in_doubly_capped,
                          project_cols_capped_simplex, project_doubly_capped,
                          project_material_map, project_rows_capped_simplex)
from .spectral import (AttenuationTable, ChannelBinning, NoiseConfig,
                       SourceSpectrum, SpectralDictionary, SpectralSinogram,
                       add_gaussian_noise, bin_attenuation, channel_pivot_order,
                       kedge_dictionary, kedge_attenuation_table, log_correct,
                       select_channels, simulate_counts)
from .solvers import (AapmConfig, CjointConfig, FactorResult, TwoStepConfig,
                      aapm, backtracking, cjoint, grad_coeffs, grad_maps,
                      lagrangian_value, nmf_als, objective, ru, tikhonov_cg,
                      ur)
from .evaluation import (MatchResult, PSNR_SATURATION_DB, greedy_match, mse,
                         psnr, ssim)
from .data_io import (FormatError, RunConfig, export_pgm16,
                      load_attenuation_csv, load_config, load_matrix,
                      parse_config, save_attenuation_csv, save_matrix)

__version__ = "0.1.0"
