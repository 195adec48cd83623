import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lossgeom import ConfigError, ModelParams, SweepSpec, parse_config
from lossgeom import config


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_file_gives_all_defaults(tmp_path):
    params, sweep = parse_config(write(tmp_path, ""))
    assert params == ModelParams()
    assert sweep == SweepSpec()
    assert sweep.fixed_sigma_e is False


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
gamma = 0.25   # inline comment
repeats = 3
fixed_sigma_e = yes
"""
    params, sweep = parse_config(write(tmp_path, text))
    assert params.n_examples == 60
    assert params.sigma_e == 0.05
    assert params.length_beta == 1.0
    assert params.seed == 42
    assert sweep.points == 7
    assert sweep.gamma == 0.25
    assert sweep.repeats == 3
    assert sweep.fixed_sigma_e is True


def test_comments_and_blank_lines_ignored(tmp_path):
    params, sweep = parse_config(write(tmp_path, "\n# only a comment\n\nseed = 3 # trailing\n"))
    assert params.seed == 3


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
    with pytest.raises(ConfigError, match=r"'fixed_sigma_e' needs a boolean"):
        parse_config(write(tmp_path, "fixed_sigma_e = maybe\n"))


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
        _, sweep = parse_config(write(tmp_path, f"fixed_sigma_e = {word}\n", name=f"{word}.cfg"))
        assert sweep.fixed_sigma_e is value


# Fuzzed configs are only parsed, never run: a `points` in the millions or an
# `n_weights` in the billions parses fine and would then run for long or allocate.
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
        params, sweep = parse_config(path)
    except ConfigError:
        return
    assert isinstance(params, ModelParams) and isinstance(sweep, SweepSpec)


def test_readme_config_block_parses_and_names_every_key(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    params, sweep = parse_config(write(tmp_path, block))
    assert isinstance(params, ModelParams) and isinstance(sweep, SweepSpec)
    keys = {line.split("=")[0].strip() for line in block.splitlines() if "=" in line}
    assert keys == set(config._KEY_TYPES)


def test_module_docstring_names_every_key():
    doc = config.__doc__.split("Recognized keys:", 1)[1]
    named = [key.strip() for group in re.findall(r"\(([^)]*)\)", doc) for key in group.split(",")]
    assert sorted(named) == sorted(config._KEY_TYPES)


def test_a_file_that_is_not_utf8_names_its_path_and_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = 1\n# caf\xff\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: not UTF-8 text$"):
        parse_config(str(path))


def test_every_line_ending_ends_a_line(tmp_path):
    path = tmp_path / "mixed.cfg"
    path.write_bytes(b"seed = 3\r\nn_classes = 4\rpoints = 5\n")
    params, sweep = parse_config(str(path))
    assert (params.seed, params.n_classes, sweep.points) == (3, 4, 5)
