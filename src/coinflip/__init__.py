"""Simulator and analysis library for loss-tolerant quantum coin flipping."""

from .analytics import (alice_bias_bound, bob_bias, cunning_agreement,
                        fair_alpha2, reference_table)
from .catalog import Family, StateFamily, basis_pair, committed_density
from .channel import transmit
from .harness import (BiasEstimate, ExperimentConfig, run_experiment,
                      wilson_interval)
from .protocols import (LossPolicy, ProtocolId, Transcript, VariantFlags,
                        default_flags, run_chunk)
from .quantum import (helstrom_success, measure_projective, mix, steer_epr,
                      trace_distance)
from .strategies import Side

__version__ = "0.1.0"
