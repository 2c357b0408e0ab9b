"""Config parsing, validation, and serialization."""

import dataclasses
import json

import pytest

import branchcl as bc
from branchcl import ConfigError


def test_defaults_are_valid():
    cfg = bc.ExperimentConfig()
    bc.validate_config(cfg)
    assert cfg.stream.tasks == 4
    assert cfg.adapter.rank == 16
    assert cfg.adapter.freeze_width == 1
    assert cfg.train.epochs == 30
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.methods == ("zero_shot", "lora", "moelora", "branchlora", "multitask")


def test_dict_round_trip():
    cfg = bc.ExperimentConfig()
    again = bc.config_from_dict(bc.config_to_dict(cfg))
    assert again == cfg


def test_empty_object_means_defaults():
    assert bc.config_from_dict({}) == bc.ExperimentConfig()


def test_partial_overrides():
    cfg = bc.config_from_dict(
        {"stream": {"tasks": 2}, "train": {"lr": 0.01}, "seeds": [7]}
    )
    assert cfg.stream.tasks == 2
    assert cfg.stream.dim == 32  # untouched default
    assert cfg.train.lr == 0.01
    assert cfg.seeds == (7,)
    assert bc.config_from_dict({"adapter": {"freeze_width": 0}}).adapter.freeze_width == 0


@pytest.mark.parametrize(
    "obj,fragment",
    [
        ({"streem": {}}, "streem"),
        ({"stream": {"dims": 32}}, "stream.dims"),
        ({"stream": {"dim": "32"}}, "stream.dim"),
        ({"stream": {"dim": 7}}, "stream.dim"),
        ({"stream": {"classes": 1}}, "stream.classes"),
        ({"stream": {"train_samples": 4, "classes": 8}}, "train_samples"),
        ({"adapter": {"rank": 10, "experts": 4}}, "adapter"),
        ({"adapter": {"top_k": 9}}, "adapter"),
        ({"adapter": {"freeze_width": 99}}, "freeze_width"),
        ({"adapter": {"freeze_by": "entropy"}}, "freeze_by"),
        ({"train": {"epochs": 0}}, "train.epochs"),
        ({"train": {"lr": -1.0}}, "train.lr"),
        ({"train": {"optimizer": "adagrad"}}, "train.optimizer"),
        ({"methods": []}, "methods"),
        ({"methods": ["lora", "lora"]}, "methods"),
        ({"methods": ["fine_tune"]}, "methods[0]"),
        ({"seeds": []}, "seeds"),
        ({"seeds": [0, 0]}, "seeds"),
        ({"seeds": [0, "1"]}, "seeds[1]"),
        ({"out_dir": 5}, "out_dir"),
        ({"seeds": [-2]}, "seeds[0]"),
        # freeze_width is a plain integer: null is no alias of top_k
        ({"adapter": {"freeze_width": None}}, "adapter.freeze_width: expected an integer"),
    ],
)
def test_rejections_name_the_field(obj, fragment):
    with pytest.raises(ConfigError) as err:
        bc.config_from_dict(obj)
    assert fragment in str(err.value)


# every float field of every section: the ones a JSON NaN or Infinity can reach
FLOAT_FIELDS = [
    (section, f.name)
    for section, cls in (("stream", bc.StreamConfig), ("adapter", bc.AdapterConfig),
                         ("train", bc.TrainConfig))
    for f in dataclasses.fields(cls)
    if f.type == "float"
]


def test_float_fields_are_all_listed():
    assert FLOAT_FIELDS == [("stream", "separation"), ("stream", "noise"),
                            ("adapter", "alpha"), ("adapter", "align_weight"), ("train", "lr")]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("section,name", FLOAT_FIELDS)
def test_non_finite_floats_are_rejected_by_name(section, name, literal):
    # json.loads parses these literals as floats
    obj = json.loads(f'{{"{section}": {{"{name}": {literal}}}}}')
    with pytest.raises(ConfigError, match=rf"^{section}(\.|: ){name}.* finite, got -?(nan|inf)$"):
        bc.config_from_dict(obj)


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"stream": {"tasks": 3}}))
    cfg = bc.load_config(path)
    assert cfg.stream.tasks == 3


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"stream": {,}}')
    with pytest.raises(ConfigError) as err:
        bc.load_config(path)
    msg = str(err.value)
    assert "line" in msg and "column" in msg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        bc.load_config(tmp_path / "absent.json")


def test_shipped_configs_parse(tmp_path):
    for name in ("default.json", "smoke.json"):
        cfg = bc.load_config(f"configs/{name}")
        bc.validate_config(cfg)


def test_config_to_dict_is_json_ready():
    obj = bc.config_to_dict(bc.ExperimentConfig())
    json.dumps(obj)  # must not raise
    assert obj["adapter"]["freeze_width"] == 1
    assert "out_dir" in obj
