"""The immutable value records: equal fields give equal records with equal
hashes, no field (nor any new attribute) can be set, and repr is
Name(field=value, ...), the form variant_name prints for a variant that has
no --variant name. ExperimentConfig, a dataclass whose methods are written
by hand, keeps the contract of the frozen dataclass it stands in for."""
import dataclasses
import inspect
import pathlib
from typing import Optional

import pytest

from coinflip import harness
from coinflip.catalog import Family, StateFamily
from coinflip.discrimination import DiscriminationStats
from coinflip.errors import OutOfRange
from coinflip.harness import BiasEstimate, ExperimentConfig
from coinflip.matrix import MatrixRow
from coinflip.protocols import (LossPolicy, ProtocolId, ProtocolSpec,
                                VariantFlags, default_flags, variant_name)
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


@dataclasses.dataclass(frozen=True)
class FrozenConfig:
    """ExperimentConfig's fields as a frozen dataclass, whose methods the
    decorator generates: the contract the hand-written ones keep."""

    protocol: ProtocolId = ProtocolId.LOSS_TOLERANT_CF
    variant: Optional[VariantFlags] = None
    alice: str = "honest"
    bob: str = "honest"
    target: int = 0
    trials: int = 100_000
    seed: int = 12345
    alpha2: float = 0.9
    eta: float = 1.0
    max_restarts: int = 10_000
    photon_count: int = 1


# for each field, a value other than its default that still constructs
OTHER = dict(protocol=ProtocolId.BB84_CF,
             variant=default_flags(ProtocolId.LOSS_TOLERANT_CF), alice="honest_pulse",
             bob="lt_helstrom", target=1, trials=7, seed=8, alpha2=0.8, eta=0.5,
             max_restarts=9, photon_count=2)
CONFIGS = [{}, {"protocol": ProtocolId.BB84_CF},
           {name: value for name, value in OTHER.items() if name != "protocol"}]


@pytest.mark.parametrize("fields", CONFIGS)
def test_the_config_equals_and_hashes_as_a_frozen_dataclass(fields):
    cfg, ref = ExperimentConfig(**fields), FrozenConfig(**fields)
    twin = ExperimentConfig(**fields)
    assert cfg is not twin and cfg == twin and hash(cfg) == hash(twin)
    assert hash(cfg) == hash(ref)
    assert cfg != ref and ref != cfg  # no other class, as the reference's eq


@pytest.mark.parametrize("name", OTHER)
def test_one_changed_field_gives_an_unequal_config(name):
    cfg = ExperimentConfig()
    assert cfg != ExperimentConfig(**{name: OTHER[name]})


@pytest.mark.parametrize("fields", CONFIGS)
def test_the_config_repr_is_the_frozen_dataclass_repr(fields):
    shown = repr(FrozenConfig(**fields)).replace("FrozenConfig", "ExperimentConfig", 1)
    assert repr(ExperimentConfig(**fields)) == shown


@pytest.mark.parametrize("fields", CONFIGS)
def test_positional_and_keyword_configs_agree(fields):
    values = [fields.get(f.name, f.default) for f in dataclasses.fields(FrozenConfig)]
    by_position, by_name = ExperimentConfig(*values), ExperimentConfig(**fields)
    assert by_position == by_name and repr(by_position) == repr(by_name)


def test_no_config_field_can_be_assigned_or_deleted():
    cfg = ExperimentConfig(**CONFIGS[2])
    before = repr(cfg)
    for name in (*OTHER, "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, OTHER.get(name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(cfg, name)
    assert repr(cfg) == before


def test_the_config_fields_are_its_init_parameters():
    fields = dataclasses.fields(ExperimentConfig)
    params = inspect.signature(ExperimentConfig).parameters.values()
    assert [f.name for f in fields] == [p.name for p in params] == list(OTHER)
    assert [f.default for f in fields] == [p.default for p in params] \
        == [f.default for f in dataclasses.fields(FrozenConfig)]


def test_a_replaced_config_is_checked():
    with pytest.raises(OutOfRange):
        dataclasses.replace(ExperimentConfig(), trials=0)


def test_no_config_method_is_generated():
    """Every function the class holds is written in harness.py; one that
    the dataclass decorator generated by exec would name no such file.
    A function of the dataclasses module itself (Python 3.13's shared
    __replace__) is no generated code."""
    here = pathlib.Path(harness.__file__).name
    own = [obj for obj in vars(ExperimentConfig).values()
           if inspect.isfunction(obj) and obj.__module__ != "dataclasses"]
    assert own and {pathlib.Path(f.__code__.co_filename).name for f in own} == {here}
