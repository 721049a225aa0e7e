"""Simulator and analysis library for loss-tolerant quantum coin flipping.

The package re-exports the run path only. The closed-form oracle layer is
imported by module: coinflip.analytics (bias formulas, the reference table)
and coinflip.discrimination (mixtures, trace distance, Helstrom, state
discrimination)."""

from .catalog import Family, StateFamily, basis_pair
from .channel import transmit
from .harness import (BiasEstimate, ExperimentConfig, run_experiment,
                      wilson_interval)
from .protocols import (LossPolicy, ProtocolId, Transcript, VariantFlags,
                        default_flags, run_chunk)
from .quantum import measure_projective, steer_epr
from .strategies import Side

__version__ = "0.1.0"
