"""Simulation toolkit for tunable-weight two-qubit photonic graph states.

The package covers the full software side of the experiment: Jones-
calculus propagation through the generation train, construction of the
ideal weighted graph state, projective measurement and coincidence
counting, sixteen-setting maximum-likelihood tomography, phase sensing
against the quantum Cramer-Rao bound with an exhaustive Pauli and a
deterministic general-axis measurement search, and the
bin-bootstrap statistics pipeline.
"""

__version__ = "0.1.0"

from .qmath import (DensityMatrix, NonPhysicalStateError, PureState2Q,
                    concurrence, expectation, fidelity, tensor, trace_distance)
from .optics import WaveplateKind, rotation_gate, waveplate_jones
from .stategen import (DegeneratePostselectionError, GenerationConfig,
                       GenerationResult, NoiseModel, apply_noise,
                       canonical_config, mzi_phase_condition,
                       simulate_generation, weighted_graph_state)
from .measurement import (Observable, ProjectorSetting, WaveplateSolverError,
                          general_axis_observable, outcome_probabilities,
                          pauli_observable, simulate_counts, solve_projector_batch,
                          solve_projector_waveplates)
from .metrology import (DerivativeVanishesError, SearchError, SensingResult,
                        encoding_unitary, general_axis_search, limits,
                        pauli_search, qfi_closed_form, qfi_numeric, sense)
from .stats import (BinnedCounts, BootstrapResult, CosineFitError,
                    DegenerateDataError, FitResult, SensingBootstrap,
                    bootstrap_expectation, bootstrap_sensing, cosine_fit,
                    visibility)
from .tomography import (ReconstructionError, ReconstructionReport,
                         TomographyDataset, TomographySetting, dataset_csv,
                         mle_reconstruct, monte_carlo_report, read_dataset_csv,
                         simulate_tomography, tomography_settings)

__all__ = [name for name in dir() if not name.startswith("_")]
