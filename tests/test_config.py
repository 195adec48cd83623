import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lossgeom import ConfigError, ModelParams, RunConfig, SweepSpec, parse_config
from lossgeom import config


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_file_gives_all_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    assert cfg.params == ModelParams()
    assert cfg.sweep == SweepSpec()
    assert cfg.sweep.fixed_sigma_e is False
    assert cfg.output_dir == "out"
    assert cfg.emit_svg is False


def test_full_file_round_trip(tmp_path):
    text = """
# model block
n_examples = 60
n_classes = 5
n_weights = 120
sigma_z = 2.5
sigma_c = 0.1
sigma_e = 5e-2
length_beta = 1.0
target_accuracy = 0.9
seed = 42
hyperplane_dim = 6

# sweep block
sigma_z_min = 0.01
sigma_z_max = 10
points = 7
scale = log
gamma = 0.25
sigma_z_ref = 2.5
repeats = 3
fixed_sigma_e = yes

output_dir = results   # inline comment
emit_svg = true
"""
    cfg = parse_config(write(tmp_path, text))
    assert cfg.params.n_examples == 60
    assert cfg.params.sigma_e == 0.05
    assert cfg.params.length_beta == 1.0
    assert cfg.params.seed == 42
    assert cfg.sweep.points == 7
    assert cfg.sweep.gamma == 0.25
    assert cfg.sweep.repeats == 3
    assert cfg.sweep.fixed_sigma_e is True
    assert cfg.output_dir == "results"
    assert cfg.emit_svg is True


def test_comments_and_blank_lines_ignored(tmp_path):
    cfg = parse_config(write(tmp_path, "\n# only a comment\n\nseed = 3 # trailing\n"))
    assert cfg.params.seed == 3


def test_unknown_key_error_carries_location(tmp_path):
    path = write(tmp_path, "bogus_key = 1\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:1: unknown key 'bogus_key'"):
        parse_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = write(tmp_path, "seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match=r":2: duplicate key 'seed'"):
        parse_config(path)


def test_missing_equals_rejected(tmp_path):
    path = write(tmp_path, "seed 5\n")
    with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
        parse_config(path)


def test_missing_value_rejected(tmp_path):
    path = write(tmp_path, "seed =\n")
    with pytest.raises(ConfigError, match=r"has no value"):
        parse_config(path)


def test_type_errors_name_the_key(tmp_path):
    with pytest.raises(ConfigError, match=r"'seed' needs an integer"):
        parse_config(write(tmp_path, "seed = three\n"))
    with pytest.raises(ConfigError, match=r"'sigma_z' needs a real"):
        parse_config(write(tmp_path, "sigma_z = big\n"))
    with pytest.raises(ConfigError, match=r"'emit_svg' needs a boolean"):
        parse_config(write(tmp_path, "emit_svg = maybe\n"))


def test_domain_errors_surface_as_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="n_examples"):
        parse_config(write(tmp_path, "n_examples = 0\n"))
    with pytest.raises(ConfigError, match="sigma_z_min"):
        parse_config(write(tmp_path, "sigma_z_min = 5\nsigma_z_max = 1\n"))


def test_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        parse_config(str(tmp_path / "absent.cfg"))


def test_boolean_spellings(tmp_path):
    for word, value in (("true", True), ("no", False), ("1", True), ("0", False)):
        cfg = parse_config(write(tmp_path, f"emit_svg = {word}\n", name=f"{word}.cfg"))
        assert cfg.emit_svg is value


# Fuzzed configs are only parsed, never run: a `points` or `n_weights` in the
# billions parses fine and would then allocate.
FUZZ = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
VALUES = st.one_of(
    st.integers().map(str),
    st.sampled_from(["0", "-1", "-4", "1" + "0" * 400, "2e3", "0x10", "1_000"]),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "-0.0", "5e-324"]),
    st.sampled_from(["true", "no", "log", "linear", "out"]),
    st.text(alphabet="abcxyz_-./", min_size=1, max_size=8),
)


@FUZZ
@given(st.dictionaries(st.sampled_from(sorted(config._KEY_TYPES)), VALUES, max_size=8))
@example(entries={"n_weights": "0"})
@example(entries={"n_weights": "1" + "0" * 400})  # too large for a float
def test_fuzzed_configs_parse_or_raise_config_error(tmp_path, entries):
    path = write(tmp_path, "".join(f"{k} = {v}\n" for k, v in entries.items()))
    try:
        cfg = parse_config(path)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


def test_readme_config_block_parses_and_names_every_key(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    assert isinstance(parse_config(write(tmp_path, block)), RunConfig)
    keys = {line.split("=")[0].strip() for line in block.splitlines() if "=" in line}
    assert keys == set(config._KEY_TYPES)
