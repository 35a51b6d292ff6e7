"""Hypothesis fuzzing of the command line's outside inputs.

INI values go through every subcommand that reads a config (``bounds``,
``field-check``, ``sweep``, ``cook`` and ``gauge-check``), which must exit
0, 1 or 2 with at most one stderr line and no escaping exception;
a numpy RuntimeWarning is turned into an exception, so a warning counts as a
leak.  Snapshot bytes go through ``spatial.read_snapshot``, which may
raise only ``ConfigError``.  Example counts stay small and derandomized so
the suite is fast and repeatable.
"""

import configparser
import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dipolelab import cli, harness, spatial
from dipolelab.errors import ConfigError

FUZZ = settings(max_examples=25, deadline=None, derandomize=True, database=None)

MISSING = None
EXTREMES = ("nan", "inf", "-inf", "0", "-1", "-1e308", "1e308", MISSING)


def base_config():
    return harness.StudyConfig(
        grid_points=(128,), grid_lengths=(40.0,), lambdas=(20.0, 40.0),
        t_final=np.pi / 256 + np.pi / 4, dt=np.pi / 256, panels=4, seed=3)


def _ini_keys():
    cp = configparser.ConfigParser()
    cp.read_string(base_config().canonical_text())
    return [(section, key) for section in cp.sections() for key in cp[section]]


INI_KEYS = _ini_keys()
edits = st.lists(st.tuples(st.sampled_from(INI_KEYS), st.sampled_from(EXTREMES)),
                 min_size=1, max_size=3)


def run_cli(command, changes):
    """(exit code, stderr lines) of one CLI call on the edited base INI."""
    cp = configparser.ConfigParser()
    cp.read_string(base_config().canonical_text())
    for (section, key), value in changes:
        if value is MISSING:
            cp.remove_option(section, key)
        else:
            cp[section][key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "study.ini"
        with open(ini, "w") as fh:
            cp.write(fh)
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([command, "--config", str(ini), "--out", tmp])
    return code, err.getvalue().splitlines()


def check_cli(command, changes):
    code, lines = run_cli(command, changes)
    assert code in (0, 1, 2), (code, lines)
    assert len(lines) <= (0 if code == 0 else 1), lines
    return code, lines


# Each example is a hole that leaked a warning or a traceback: amplitude 1e308
# (|b|^2 overflows), a missing required key (None reached a comparison),
# eps 1e308 (eps ** 2 raised OverflowError), lengths 1e308 (squared
# coordinates overflowed) and lambda 5e-324 (2 pi / lambda overflowed).
@FUZZ
@given(edits)
@example([(("field", "amplitude"), "1e308")])
@example([(("run", "panels"), MISSING)])
@example([(("potential", "eps"), "1e308")])
@example([(("grid", "lengths"), "1e308")])
def test_fuzz_bounds_cli(changes):
    check_cli("bounds", changes)


@FUZZ
@given(edits)
@example([(("field", "amplitude"), "1e308")])
@example([(("field", "lambdas"), "5e-324")])
def test_fuzz_field_check_cli(changes):
    check_cli("field-check", changes)


# t_final 1e308 made the step count (t_final - t0) / dt infinite, and evolve
# leaked an OverflowError from int(round(inf)).
@pytest.mark.parametrize("command", ["sweep", "cook", "gauge-check"])
@FUZZ
@given(changes=edits)
@example(changes=[(("run", "t_final"), "1e308")])
def test_fuzz_study_cli(command, changes):
    check_cli(command, changes)


def test_bounds_overflowing_operator_exits_2_with_one_line():
    # |b|^2 is finite but the normal operator (b^2)^2 is not
    code, lines = check_cli("bounds", [(("field", "amplitude"), "1e150")])
    assert code == 2 and lines[0].startswith("numerical failure:")


def snapshot_bytes() -> bytes:
    grid = spatial.make_grid(2, 8, 4.0)
    psi = spatial.WaveFunction(grid, np.full(grid.shape, 0.25 + 0.5j))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.dplw"
        spatial.write_snapshot(path, psi)
        return path.read_bytes()


VALID = snapshot_bytes()
HEADER = 4 + 8 + 2 * 4 + 2 * 8  # magic, version and dim, 2 shape words, 2 lengths


def read_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.dplw"
        path.write_bytes(data)
        try:
            return spatial.read_snapshot(path)
        except ConfigError:
            return None


@FUZZ
@given(st.binary(max_size=64))
def test_fuzz_snapshot_random_bytes(data):
    read_bytes(data)
    read_bytes(VALID[:4] + data)


@FUZZ
@given(st.integers(0, len(VALID)),
       st.lists(st.tuples(st.integers(0, HEADER - 1), st.integers(0, 255)), max_size=4))
def test_fuzz_snapshot_truncated_or_corrupted_header(cut, flips):
    data = bytearray(VALID)
    for pos, value in flips:
        data[pos] = value
    psi = read_bytes(bytes(data[:cut]))
    if psi is not None:
        assert all(0 < l < math.inf for l in psi.grid.lengths)
