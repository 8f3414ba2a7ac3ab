"""Config schema: the typed JSON builder and the finite-value checks of each config."""

from dataclasses import is_dataclass
from typing import get_args, get_type_hints

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sliceset.cli import RunConfig
from sliceset.data import AXES, TASKS
from sliceset.encoders import ENCODER_KINDS, EncoderConfig
from sliceset.model import AGGREGATOR_KINDS, AggregatorConfig, build_dataclass
from sliceset.train import LOSS_KINDS, OPTIMIZER_KINDS, OptimizerConfig


@pytest.mark.parametrize("mapping, message", [
    ({"train": {"epochs": "3"}}, 'epochs in train must be an integer, got "3"'),
    ({"train": {"epochs": True}}, "epochs in train must be an integer, got true"),
    ({"optimizer": {"learning_rate": None}}, "learning_rate in optimizer must be a number, got null"),
    ({"encoder": {"input_channels": 1.5}}, "input_channels in encoder must be an integer, got 1.5"),
    ({"encoder": {"pad_to_min": 1}}, "pad_to_min in encoder must be a boolean, got 1"),
    ({"aggregator": {"model_dim": "8"}}, 'model_dim in aggregator must be an integer or null, got "8"'),
    ({"optimizer": {"learning_rate": 10 ** 400}}, "learning_rate in optimizer must be a number"),
    ({"axis": ["coronal"]}, 'axis in run config must be a string, got ["coronal"]'),
    ({"train": []}, "train must be a JSON object, got list"),
    ({"encoder": {"dropout": 0.5}}, "unknown key(s) in encoder: ['dropout']"),
])
def test_builder_rejects_wrong_json_types_by_key(mapping, message):
    with pytest.raises(ValueError) as excinfo:
        build_dataclass(RunConfig, mapping, "run config")
    assert message in str(excinfo.value)


def test_builder_accepts_ints_as_floats_and_null_for_optional_fields():
    config = build_dataclass(RunConfig, {
        "encoder": {"width_multiplier": 1}, "optimizer": {"learning_rate": 1},
        "aggregator": {"kind": "attention", "model_dim": None}, "train": {"loss": None},
        "train_manifest": None}, "run config")
    assert config.encoder.width_multiplier == 1 and config.optimizer.learning_rate == 1
    assert config.aggregator.model_dim is None and config.train.loss is None


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 1e308])
def test_encoder_config_rejects_non_finite_or_overflowing_width(value):
    with pytest.raises(ValueError, match="width_multiplier"):
        EncoderConfig(width_multiplier=value)


@pytest.mark.parametrize("name", ["learning_rate", "beta1", "beta2", "epsilon"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_optimizer_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        OptimizerConfig(**{name: value})


@pytest.mark.parametrize("name", ["model_dim", "ff_hidden_dim"])
@pytest.mark.parametrize("value", [0, -4])
def test_aggregator_config_rejects_non_positive_sizes_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive"):
        AggregatorConfig(kind="attention", **{name: value})
    assert getattr(AggregatorConfig(kind="attention", **{name: None}), name) is None


# ---------------------------------------------------------------------------
# fuzzing: any JSON shaped like a run config builds or is a ValueError
# ---------------------------------------------------------------------------

CHOICES = st.sampled_from(["auto", *TASKS, *AXES, *ENCODER_KINDS, *AGGREGATOR_KINDS,
                           *LOSS_KINDS, *OPTIMIZER_KINDS])
TYPED = {bool: st.booleans(), int: st.integers(-2, 2 ** 64), str: CHOICES | st.text(max_size=6),
         float: st.floats() | st.integers(-2, 2 ** 64) | st.sampled_from([10 ** 400]),
         type(None): st.none()}
JSON_VALUES = st.recursive(st.one_of(*TYPED.values()),
                           lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                           max_leaves=6)


def config_objects(cls):
    """JSON objects over the fields of ``cls``, sections built recursively; each
    value is mostly of its declared type, else any JSON value."""
    def value_for(declared):
        if is_dataclass(declared):
            return config_objects(declared) | JSON_VALUES
        return st.one_of(*(TYPED[t] for t in get_args(declared) or (declared,))) | JSON_VALUES

    return st.fixed_dictionaries({}, optional={
        name: value_for(declared) for name, declared in get_type_hints(cls).items()})


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_objects(RunConfig))
def test_fuzz_run_config_builds_or_raises_value_error(mapping):
    try:
        config = build_dataclass(RunConfig, mapping, "run config")
    except ValueError:
        return
    assert isinstance(config, RunConfig)


def test_optimizer_config_rejects_momentum_with_adam():
    """Adam has no momentum field of its own, so a momentum meant for SGD
    would be ignored without a word."""
    with pytest.raises(ValueError, match=r"^momentum 0\.5 is for optimizer 'sgd'; "
                                         r"optimizer 'adam' takes beta1 instead$"):
        OptimizerConfig(kind="adam", momentum=0.5)
    assert OptimizerConfig(kind="adam", momentum=0.0).momentum == 0.0
    assert OptimizerConfig(kind="sgd", momentum=0.5).momentum == 0.5
