import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choralegen.config import KEYS, RunConfig, load_run_config, parse_run_config
from choralegen.errors import ConfigError


def test_defaults():
    config = parse_run_config("")
    assert config == RunConfig()
    assert config.generation.threshold == 0.9
    assert config.train.target_mse == 0.01


def test_parse_overrides():
    config = parse_run_config("""
    # training setup
    num_blocks = 16
    optimizer = gd
    learning_rate = 0.5
    target_mse = 0.002
    """)
    assert config.network.num_blocks == 16
    assert config.optimizer == "gd"
    assert config.optimizer_config().learning_rate == 0.5
    assert config.train.target_mse == 0.002


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_run_config("learning_rte = 0.1")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_run_config("max_epochs = soon")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError):
        parse_run_config("just a line")


def test_keys_fill_all_sections():
    config = parse_run_config("seed = 9\nnum_blocks = 5\ntruncation_window = 8\n")
    assert config.network.rng_seed == 9
    assert config.network.num_blocks == 5
    assert config.optimizer_config().delta_zero == 0.1
    assert config.train.truncation_window == 8


def test_truncation_zero_means_full_bptt():
    assert parse_run_config("truncation_window = 0").train.truncation_window is None


def test_parse_is_independent_of_line_order():
    config = parse_run_config("delta_max = 0.05\ndelta_zero = 0.01\n")
    assert (config.rprop.delta_max, config.rprop.delta_zero) == (0.05, 0.01)


def test_section_error_names_the_lines_that_set_it():
    with pytest.raises(ConfigError, match=r"^line 1, line 4: need 0 < delta_min"):
        parse_run_config("delta_zero = 0.01\nthreshold = 0.5\n# rprop\ndelta_max = 0.001\n")
    # A key set twice is named at its last line, in line order.
    with pytest.raises(ConfigError, match=r"^line 2, line 4: need 0 < delta_min"):
        parse_run_config("delta_max = 1\ndelta_zero = 0.01\nthreshold = 0.5\ndelta_max = 0.001\n")


@pytest.mark.parametrize("line, message", [
    ("max_epochs = 0", "max_epochs must be >= 1"),
    ("feedback = loud", "unknown feedback mode 'loud'"),
    ("fallback = loud", "unknown fallback 'loud'"),
])
def test_bad_train_or_generation_value_names_its_line(line, message):
    with pytest.raises(ConfigError, match=f"^line 2: {re.escape(message)}$"):
        parse_run_config(f"# run\n{line}\n")


def test_flags_override_the_file_and_are_checked_alike():
    def flag(key, value):
        return [(f"--{key}", KEYS[key], value)]

    config = parse_run_config("threshold = 0.5", flag("threshold", "0.25"))
    assert config.generation.threshold == 0.25
    with pytest.raises(ConfigError, match=r"^--threshold: threshold must be in \(0, 1\)"):
        parse_run_config("threshold = 0.5", flag("threshold", "1.5"))
    with pytest.raises(ConfigError, match=r"^--seed: invalid literal"):
        parse_run_config("", flag("seed", "abc"))


def test_non_utf8_file_is_a_config_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"num_blocks = 4\n\xff\xfe\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_run_config(str(path))


VALUES = st.one_of(st.text(max_size=8), st.integers().map(str), st.floats().map(repr),
                   st.sampled_from(["rprop", "gd", "plain", "with_backtracking", "binary",
                                    "raw", "silence", "top_k", "0", "1", "-1", "1e400"]))
LINES = st.one_of(st.tuples(st.sampled_from(sorted(KEYS)), VALUES).map(" = ".join),
                  st.text(max_size=20))


@settings(max_examples=300, deadline=None)
@given(st.lists(LINES, max_size=8).map("\n".join))
def test_arbitrary_text_gives_a_config_or_config_error(text):
    try:
        config = parse_run_config(text)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)
