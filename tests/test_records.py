"""The immutable value records: equal fields give equal records with equal
hashes, no field (nor any new attribute) can be set, and repr is
Name(field=value, ...), the form variant_name prints for a variant that has
no --variant name."""
import pytest

from coinflip.catalog import Family, StateFamily
from coinflip.discrimination import DiscriminationStats
from coinflip.harness import BiasEstimate, ExperimentConfig
from coinflip.matrix import MatrixRow
from coinflip.protocols import (LossPolicy, ProtocolId, ProtocolSpec,
                                VariantFlags, variant_name)
from coinflip.strategies import HonestBob, Strategy

ON_FAITH_MEASURED = VariantFlags(LossPolicy.BELIEVE_ON_FAITH, True)  # no --variant name

# each record with every field, in field order
RECORDS = [
    (VariantFlags, dict(loss_policy=LossPolicy.BELIEVE_ON_FAITH,
                        bob_measures_on_reception=True)),
    (ProtocolSpec, dict(family=Family.AMBAINIS, variants=(ON_FAITH_MEASURED,),
                        coin_from_x=True)),
    (Strategy, dict(protocols=(ProtocolId.BB84_CF,), build=HonestBob, min_photons=2,
                    pulses=True, variants=(ON_FAITH_MEASURED,))),
    (BiasEstimate, dict(successes=7, aborts=1, restart_total=3, trials=10,
                        limit_hits=0)),
    (MatrixRow, dict(label="row", cfg=ExperimentConfig(trials=5), metric="p_hat",
                     reference="lt_alice_success")),
    (DiscriminationStats, dict(p_inconclusive=0.25, confidence=0.75,
                               per_outcome=((0, 0.5, 0.75),))),
    (StateFamily, dict(family=Family.LOSS_TOLERANT, alpha2=0.8)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_with_equal_hashes(cls, fields):
    a, b = cls(**fields), cls(*fields.values())
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {name: getattr(a, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_no_field_can_be_set(cls, fields):
    record = cls(**fields)
    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(cls, fields):
    record = cls(**fields)
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == str(record) == f"{cls.__name__}({shown})"


def test_a_variant_without_a_name_prints_as_its_repr():
    assert variant_name(ON_FAITH_MEASURED) == repr(ON_FAITH_MEASURED)
