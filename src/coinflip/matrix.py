"""The check matrix: every simulated number with a closed-form counterpart.

Each MatrixRow names an experiment config, the BiasEstimate attribute it
measures and the reference_table label of its closed-form value;
evaluate_matrix runs every distinct config once and compares. In the
package only `coinflip table` reads this module, importing it when it runs,
so importing the package or its CLI does not load it. Each config runs through
harness.run_experiment, looked up at call time, so that a wrapper installed
there (as the benchmark's tracer installs one) also sees the matrix's runs.
"""
from __future__ import annotations

from typing import NamedTuple

from . import harness
from .analytics import fair_alpha2, reference_table
from .errors import OutOfRange
from .harness import BiasEstimate, ExperimentConfig
from .protocols import VARIANT_NAMES, ProtocolId

_REFERENCE = dict(reference_table())  # label -> closed-form value


class MatrixRow(NamedTuple):
    label: str
    cfg: ExperimentConfig
    metric: str  # attribute of BiasEstimate
    reference: str  # label of the expected value in _REFERENCE

    @property
    def expected(self) -> float:
        return _REFERENCE[self.reference]

    @property
    def exact(self) -> bool:
        """A certain success must hold to the last count, not within tolerance."""
        return self.metric == "p_hat" and self.expected == 1.0


def check_matrix(trials: int = 100_000, seed: int = 12345) -> list[MatrixRow]:
    t = fair_alpha2()
    lt = ProtocolId.LOSS_TOLERANT_CF

    def cfg(**kw) -> ExperimentConfig:
        return ExperimentConfig(trials=trials, seed=seed, alpha2=t, **kw)

    rotated = cfg(protocol=ProtocolId.BB84_CF, alice="bb84_rotated")
    conclusive = cfg(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
                     variant=VARIANT_NAMES["restart_measure"],
                     bob="ambainis_conclusive", target=1)
    usd = cfg(protocol=lt, alice="honest_pulse", bob="twophoton_usd",
              target=1, photon_count=2)
    honest_app = cfg(protocol=lt, alice="honest_pulse",
                     bob="twophoton_honest_apparatus", target=1, photon_count=2)
    return [
        MatrixRow("bb84_postpone_lie",
                  cfg(protocol=ProtocolId.BB84_CF, alice="bb84_postpone_lie"),
                  "p_hat", "bb84_postpone_lie_success"),
        MatrixRow("bb84_rotated", rotated, "p_hat", "bb84_rotated_success"),
        MatrixRow("bb84_rotated_caught", rotated, "abort_rate",
                  "bb84_rotated_caught"),
        MatrixRow("bb84_epr",
                  cfg(protocol=ProtocolId.BB84_CF, alice="bb84_epr", target=1),
                  "p_hat", "bb84_epr_success"),
        MatrixRow("ambainis_alice_optimal",
                  cfg(protocol=ProtocolId.AMBAINIS_CF, alice="ambainis_optimal"),
                  "p_hat", "ambainis_alice_success"),
        MatrixRow("ambainis_bob_conclusive", conclusive, "p_hat",
                  "ambainis_conclusive_success"),
        MatrixRow("ambainis_bob_conclusive_restarts", conclusive,
                  "restarts_per_trial", "ambainis_conclusive_restarts"),
        MatrixRow("ambainis_send_nothing",
                  cfg(protocol=ProtocolId.AMBAINIS_CF_VARIANT,
                      variant=VARIANT_NAMES["believe_on_faith"],
                      alice="send_nothing", target=1),
                  "p_hat", "send_nothing_success"),
        MatrixRow("lt_alice_optimal", cfg(protocol=lt, alice="lt_optimal"),
                  "p_hat", "lt_alice_success"),
        MatrixRow("lt_bob_helstrom",
                  cfg(protocol=lt, bob="lt_helstrom", target=1),
                  "p_hat", "lt_bob_success"),
        MatrixRow("mcqm_bob_restart",
                  cfg(protocol=ProtocolId.MCQM_CONTRIVED_CF, bob="mcqm_restart",
                      target=1),
                  "p_hat", "mcqm_confidence"),
        MatrixRow("cunning_son_agreement",
                  cfg(protocol=lt, bob="cunning_son", target=0),
                  "p_hat", "cunning_agreement"),
        MatrixRow("twophoton_usd_rate", usd, "conclusive_rate",
                  "twophoton_usd_rate"),
        MatrixRow("twophoton_usd_correct", usd, "p_hat", "twophoton_usd_correct"),
        MatrixRow("twophoton_honest_rate", honest_app, "conclusive_rate",
                  "twophoton_honest_rate"),
    ]


def evaluate_matrix(trials: int = 100_000, seed: int = 12345,
                    tolerance: float = 0.01) -> list[dict]:
    """Run every matrix row and compare against its closed-form value.

    Rows sharing a config are run once; exact rows require the measured value
    to equal the expectation to the last count.
    """
    if not tolerance >= 0.0:  # NaN included
        raise OutOfRange(f"tolerance={tolerance} must be >= 0")
    rows = check_matrix(trials, seed)
    cache: dict[ExperimentConfig, BiasEstimate] = {}
    results = []
    for row in rows:
        est = cache.get(row.cfg)  # one lookup, and one store for a new config
        if est is None:
            est = cache[row.cfg] = harness.run_experiment(row.cfg)
        measured = getattr(est, row.metric)
        if row.exact:
            ok = measured == row.expected
        else:
            ok = abs(measured - row.expected) <= tolerance
        results.append({
            "label": row.label,
            "metric": row.metric,
            "measured": measured,
            "expected": row.expected,
            "ok": ok,
        })
    return results
