"""Multi-step grey-box system identification with exact backpropagated
gradients, physics-based penalties, and a reproducible experiment CLI."""

from .errors import (ConfigError, DimensionMismatch, DivergedRollout,
                     InvalidBox, MaskViolation, MsidError, NonFiniteGradient,
                     NonFiniteState, NonFiniteValue, NonPositiveInertia,
                     OutsideDomain, TrajectoryMismatch)
from .gradient import (GradientReport, LossSpec, cost, fd_gradient, gamma_terms,
                       gradient, gradient_naive, prediction_error)
from .model import (Dataset, DynamicalModel, ModelDims, Trajectory,
                    load_dataset, numeric_jacobian, rollout, save_dataset)
from .optimizer import (AdamState, HistoryRecord, IdentificationRun,
                        IdentifyOptions, StopReason, adam_step, identify)
from .penalties import (EnergyConservation, LowerBarrier, ParameterBox,
                        PenaltySpec, ReluUpperBound, UpperBarrier,
                        project_box)
from .structure import (SparsityMask, entry_evaluations, masked_jac_f_x,
                        sparse_chain_apply, validate_mask)
from .systems import (NoiseSpec, angular_rates, euler_attitude_model,
                      euler_sparsity_mask, euler_step, generate_dataset,
                      rotational_energy, rotational_energy_gradient,
                      rotational_energy_term, scalar_linear_model)

__version__ = "0.1.0"
