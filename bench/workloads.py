"""The benchmark's workloads and the inputs each one hands to dipolelab.

The program receives only generated inputs: a preset name or a written INI
file, plus ``--seed``.  The workload seed becomes the study seed, which moves
only the ``bounds`` probe ensemble; the study physics does not depend on it.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None
    ini_text: str | None
    lambdas: tuple
    # Each probe pass runs the operator-estimate probe on this many distinct
    # seeds derived from the workload seed, enough for a pass of a few
    # seconds.  This machine's speed swings by up to 2x over seconds, so a
    # shorter pass would mostly measure the moment it ran in; power-iteration
    # lengths also vary by about 8% from one seed to the next.
    probe_seeds: int = 8


WORKLOADS = {w.name: w for w in (
    Workload("pulse-1d", "pulse-1d", None, (10.0, 20.0, 40.0, 80.0), 64),
    Workload("two-body-1d", "two-body-1d", None, (10.0, 20.0, 40.0, 80.0), 12),
)}


def load_program(root: Path):
    """Import dipolelab from the checkout's own sources and return its CLI.

    Exits with code 1, printing no result, when the checkout holds no
    sources, so the benchmark never measures some other installed copy.
    """
    src = (root / "src").resolve()
    if not (src / "dipolelab" / "cli.py").is_file():
        sys.exit(f"bench: no dipolelab sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import dipolelab.cli as cli
    if Path(cli.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: imported dipolelab from {cli.__file__}, not from {src}")
    return cli


def write_inputs(workload: Workload, seed: int, work: Path) -> Path:
    """Write the workload's study config as INI; returns its path.

    Preset workloads run their studies through ``dipolelab preset``; their INI
    (the preset as the harness defines it) feeds the probe commands, which
    accept only ``--config``.
    """
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"{workload.name}.ini"
    if workload.ini_text is not None:
        path.write_text(workload.ini_text)
    else:
        from dipolelab.harness import preset_config
        preset_config(workload.preset).write_ini(path)
    return path


def run_cli(cli, argv) -> tuple[float, int | None, str | None]:
    """(seconds, exit code, repr of an escaped exception) for one CLI call."""
    with contextlib.redirect_stdout(io.StringIO()):
        tick = time.perf_counter()
        try:
            code, raised = cli.main(argv), None
        except Exception as exc:  # a traceback escaping the CLI is a failure
            code, raised = None, repr(exc)
        seconds = time.perf_counter() - tick
    return seconds, code, raised


def study_argv(workload: Workload, ini: Path, seed: int, out: Path) -> list[str]:
    if workload.preset is not None:
        return ["preset", workload.preset, "--seed", str(seed), "--out", str(out)]
    return ["sweep", "--config", str(ini), "--seed", str(seed), "--out", str(out)]


def probe_argvs(ini: Path, seed: int, out: Path) -> list[list[str]]:
    """The operator-estimate probe: ``bounds`` plus ``field-check``."""
    common = ["--config", str(ini), "--seed", str(seed), "--out", str(out)]
    return [["bounds", *common], ["field-check", *common]]


def probe_seeds(seed: int, count: int) -> list[int]:
    """The workload seed followed by distinct seeds drawn deterministically from it."""
    rng = random.Random(seed)
    seeds = [seed]
    while len(seeds) < count:
        drawn = rng.randrange(1 << 31)
        if drawn not in seeds:
            seeds.append(drawn)
    return seeds


def prepare(workload: Workload, ini: Path, seed: int) -> None:
    """What every CLI call pays before its study starts.

    Builds the config, grid, envelope and sampled potential and makes the
    first profile evaluation, which builds the pulse table for pulse
    envelopes.
    """
    from dipolelab.fields import profile_value
    from dipolelab.hamiltonians import potential_on_grid
    from dipolelab.harness import StudyConfig, preset_config

    if workload.preset is not None:
        config = preset_config(workload.preset)
    else:
        config = StudyConfig.from_ini(ini)
    config = replace(config, seed=seed)
    config.validate()
    grid = config.build_grid()
    env = config.build_envelope()
    potential_on_grid(config.build_potential(), grid)
    profile_value(env.kind, 0.0)
