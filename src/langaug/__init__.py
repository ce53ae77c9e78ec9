"""Langevin-bridge data augmentation and its verification harness."""

from .numerics import AdamHyper, AdamState, adam_step, derive_stream, init_adam_state
from .synth import (DomainSpec, GlmVectorDataset, MultiDomainDataset,
                    generate_benchmark, generate_vector_glm, load_dataset, save_dataset)
from .energy import (EnergyArch, EnergyParams, energy_value_and_grad_input,
                     energy_value_and_grad_params, init_energy_params)
from .langevin import LangevinConfig, channel_replace_hook, langevin_step, run_chain_batch
from .cdtrain import CdConfig, TrainTrace, cd_gradient, train_all_pairs, train_ebm
from .pipeline import AugmentedDataset, assemble_training_stream, generate_augmented
from .segmenter import (EvalResult, SegModel, SegTrainConfig, dice, iou,
                        leave_one_out_eval, predict_mask, train_segmenter)
from .theory import (GlmFamily, TheoryReport, empirical_rademacher, estimate_rho,
                     generalization_bound, radius_and_C, reg_glm, reg_terms_general,
                     taylor_remainder_scan)

__version__ = "0.1.0"
