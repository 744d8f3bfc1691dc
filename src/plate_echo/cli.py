"""Command-line driver: forward solves, imaging runs, verification, oracle dumps.

Commands
--------
    plate-echo forward  [--config CFG | --preset NAME] [--out DIR]
    plate-echo image    MATRIX_FILE [--config CFG | --preset NAME] [--seed S] [--out DIR]
    plate-echo verify   [--config CFG | --preset NAME]
    plate-echo oracle   [--config CFG | --preset NAME] [--out DIR]

Configuration is flat INI-style key=value text with section headers (see
ExperimentConfig / CONFIG_FIELDS); an unknown section or key is refused.
Every key has a default reproducing the benchmark setup (wavenumber 4, 64
directions, 150x150 grid on [-4,4]^2, rho=4 inner-product indicator, no
noise). Presets: 'paper-star', 'paper-peanut'.

Exit codes: 0 ok, 1 standard output closed early, 2 config error, 3 solver
failure, 4 degenerate output, 5 verification failure.

Every command is a pure function of (config, input files, seed): reruns
produce byte-identical outputs. A command writes all of its files or none:
each goes to a temporary file beside its target, then all are renamed.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .farfield import is_index, load_farfield, save_farfield, uniform_angles
from .geometry import make_curve
from .imaging import (
    ApertureMask,
    NoiseModel,
    _check_indicator,
    _grid_axes,
    add_noise,
    apply_mask,
    evaluate_grid,
    save_grid_csv,
    save_grid_pgm,
)

# The solver, the oracle and the checks need scipy; the commands that use them
# import them, so `image`, `--version` and config errors load numpy only.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DEGENERATE = 4
EXIT_VERIFY = 5

DECAY_DIRECTIONS = 1024   # direction count for the decay-slope checks
DECAY_RADII = tuple(np.geomspace(10.0, 100.0, 12))


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; defaults reproduce the benchmark setup."""

    shape_kind: str = "star"
    shape_params: tuple | None = None
    k: float = 4.0
    n_dirs: int = 64
    quad_nodes: int = 128
    extent: tuple = (-4.0, 4.0, -4.0, 4.0)
    resolution: tuple = (150, 150)
    rho: float = 4.0
    which: str = "ip"
    delta: float = 0.0
    seed: int = 0
    mask_rows: tuple = ()
    mask_cols: tuple = ()
    out_dir: str = "."
    write_pgm: bool = False

    def validate(self) -> "ExperimentConfig":
        """Raise ConfigError for a value that the call consuming it would refuse, in that call's words."""
        # k and quad_nodes keep their own checks: their owners are in the solver, which imports scipy
        if not 0 < self.k < np.inf:
            raise ConfigError("k must be positive and finite")
        if not is_index(self.quad_nodes) or self.quad_nodes < 16 or self.quad_nodes % 2:
            raise ConfigError("quad_nodes must be an even integer >= 16")
        try:
            uniform_angles(self.n_dirs)
            _check_indicator(self.rho, self.which)
            _grid_axes(self.extent, self.resolution)
            NoiseModel(self.delta, self.seed)
            self.mask().check(self.n_dirs)
            curve = self.curve()
        except (ValueError, IndexError) as exc:
            raise ConfigError(str(exc)) from exc
        # pin the effective shape parameters: the commands read them (the circle's radius)
        return replace(self, shape_params=curve.params)

    def curve(self):
        return make_curve(self.shape_kind, self.shape_params)

    def mask(self) -> ApertureMask:
        return ApertureMask(receiver_rows=self.mask_rows, source_cols=self.mask_cols)


PRESETS = {
    "paper-star": ExperimentConfig(shape_kind="star"),
    "paper-peanut": ExperimentConfig(shape_kind="peanut"),
}


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------
def _parse_indices(text: str, n_dirs: int) -> tuple:
    """1-based indices and ranges a-b; a range must lie in 1..n_dirs before it is expanded."""
    out = []
    for chunk in text.replace(",", " ").split():
        if "-" in chunk:
            a, b = map(int, chunk.split("-", 1))
            if b < a:
                raise ValueError(f"index range {chunk} ends below its start")
            if a < 1 or b > n_dirs:
                raise ValueError(f"index range {chunk} outside 1..{n_dirs}")
            out.extend(range(a, b + 1))
        else:
            out.append(int(chunk))
    return tuple(out)


def _parse_values(convert):
    return lambda text: tuple(convert(v) for v in text.replace(",", " ").split())


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


# One row per config key: (section, key, ExperimentConfig attribute, parse).
# parse_config walks this table, in this order, and refuses any section
# or key not in it. A parse that returns None keeps the base value (an empty
# shape_params means the shape's defaults). The [mask] parses also take the
# effective n_dirs, which [experiment], listed first, has already set.
CONFIG_FIELDS = (
    ("experiment", "shape", "shape_kind", str.strip),
    ("experiment", "shape_params", "shape_params", lambda text: _parse_values(float)(text) or None),
    ("experiment", "k", "k", float),
    ("experiment", "n_dirs", "n_dirs", int),
    ("experiment", "quad_nodes", "quad_nodes", int),
    ("imaging", "which", "which", str.strip),
    ("imaging", "rho", "rho", float),
    ("imaging", "extent", "extent", _parse_values(float)),
    ("imaging", "resolution", "resolution", _parse_values(int)),
    ("noise", "delta", "delta", float),
    ("noise", "seed", "seed", int),
    ("mask", "rows", "mask_rows", _parse_indices),
    ("mask", "cols", "mask_cols", _parse_indices),
    ("output", "dir", "out_dir", str.strip),
    ("output", "write_pgm", "write_pgm", _parse_bool),
)


def parse_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Read an INI config file and parse it on top of base (default: the defaults)."""
    cfg = base if base is not None else ExperimentConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc

    known = {row[:2] for row in CONFIG_FIELDS}
    sections = {section for section, _ in known} | {parser.default_section}
    for section, keys in parser.items():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        for key in keys:
            if (section, key) not in known:
                raise ConfigError(f"unknown config key {key!r} in section [{section}] of {path}")

    updates = {}
    try:
        for section, key, attr, parse in CONFIG_FIELDS:
            if parser.has_option(section, key):
                text = parser.get(section, key)
                if section == "mask":
                    value = parse(text, updates.get("n_dirs", cfg.n_dirs))
                else:
                    value = parse(text)
                if value is not None:
                    updates[attr] = value
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc

    return replace(cfg, **updates).validate()


# ---------------------------------------------------------------------------
# output: all of a command's files or none
# ---------------------------------------------------------------------------
def _write(files: dict) -> None:
    """writer(tmp) beside each path, then every rename; an OSError is a ConfigError and leaves none."""
    tmps, renamed = {}, []
    umask = os.umask(0o22)                              # read it: the only way is to set it
    os.umask(umask)
    try:
        for path, writer in files.items():
            d = os.path.dirname(os.path.abspath(path))
            os.makedirs(d, exist_ok=True)
            fd, tmps[path] = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
            os.close(fd)
            writer(tmps[path])
            os.chmod(tmps[path], 0o666 & ~umask)        # mkstemp's 0600 becomes what open() gives
        for path, tmp in tmps.items():
            os.replace(tmp, path)
            renamed.append(path)
    except OSError as exc:
        for done in renamed:
            os.unlink(done)
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        for tmp in tmps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)


# ---------------------------------------------------------------------------
# commands: each returns (check records, {path: writer}, lines to print after writing)
# ---------------------------------------------------------------------------
def cmd_forward(cfg: ExperimentConfig):
    """Solve and check the operator identity; the far-field matrix file is written only if it passes."""
    from .forward import assemble_far_field_matrix
    from .verify import check_operator_identity

    ff = assemble_far_field_matrix(cfg.curve(), cfg.k, cfg.n_dirs, cfg.quad_nodes)
    path = os.path.join(cfg.out_dir, f"farfield_{cfg.shape_kind}.txt")
    return [check_operator_identity(ff)], {path: lambda p: save_farfield(ff, p)}, []


def cmd_image(cfg: ExperimentConfig, matrix_path: str):
    """Noise + mask + indicator grid from a far-field matrix file."""
    try:
        ff = load_farfield(matrix_path)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if ff.n_dirs != cfg.n_dirs:
        raise ConfigError(f"matrix has N={ff.n_dirs}, config expects N={cfg.n_dirs}")
    if ff.k != cfg.k:
        raise ConfigError(f"matrix has k={ff.k!r}, config expects k={cfg.k!r}")
    ff = add_noise(ff, NoiseModel(cfg.delta, cfg.seed))
    ff = apply_mask(ff, cfg.mask())
    grid = evaluate_grid(ff, cfg.extent, cfg.resolution, cfg.rho, cfg.which)
    stem = os.path.join(cfg.out_dir, f"grid_{cfg.which}")
    files = {f"{stem}.csv": lambda p: save_grid_csv(grid, p)}
    if cfg.write_pgm:
        files[f"{stem}.pgm"] = lambda p: save_grid_pgm(grid, p)
    ax, ay = grid.argmax_point()
    line = (f"image which={cfg.which} rho={cfg.rho:g} delta={cfg.delta:g} seed={cfg.seed} "
            f"argmax=({ax:.6g}, {ay:.6g}) max=1")
    return [], files, [line]


def cmd_oracle(cfg: ExperimentConfig):
    """The closed-form disk far-field matrix (circle configs only)."""
    from .oracle import disk_far_field_matrix

    if cfg.shape_kind != "circle":
        raise ConfigError("the oracle command needs shape = circle")
    ff = disk_far_field_matrix(cfg.shape_params[0], cfg.k, cfg.n_dirs)
    path = os.path.join(cfg.out_dir, "farfield_circle_oracle.txt")
    return [], {path: lambda p: save_farfield(ff, p)}, []


def cmd_verify(cfg: ExperimentConfig):
    """The verification suite: one record per check, and no file."""
    if cfg.n_dirs < 8:
        raise ConfigError("verify needs n_dirs >= 8 for its circle-average checks")
    from .forward import ScatteringSolver, assemble_far_field_matrix
    from .verify import (
        CheckRecord,
        check_decay_slope,
        check_equivalence_chain,
        check_funk_hecke,
        check_operator_identity,
        disk_far_field_matrix,
    )

    k, n = cfg.k, cfg.n_dirs
    # circle-average identity, including the J_0-zero separation
    j0_zero = 2.404825557695773
    records = [
        CheckRecord(name, "-", k, n, check_funk_hecke(k, (sep, 0.0), (0.0, 0.0), n), 1e-10)
        for name, sep in (("funk_hecke_origin", 0.0), ("funk_hecke_j0zero", j0_zero / k),
                          ("funk_hecke_sep10", 10.0 / k))
    ]

    radius = cfg.shape_params[0] if cfg.shape_kind == "circle" else 1.0
    orc = disk_far_field_matrix(radius, k, n)
    records.append(replace(check_operator_identity(orc, 1e-6), check="identity_oracle"))

    solver = ScatteringSolver(cfg.curve(), k, cfg.quad_nodes)
    ff = solver.far_field_matrix(n)
    records.append(replace(check_operator_identity(ff), check="identity_bie"))

    disk_bie = assemble_far_field_matrix(make_curve("circle", (radius,)), k, n, cfg.quad_nodes)
    agree = np.abs(disk_bie.entries - orc.entries).max() / np.abs(orc.entries).max()
    records.append(CheckRecord("disk_bie_vs_oracle", "circle", k, n, agree, 1e-6))

    zs = np.random.default_rng(0).uniform(-4.0, 4.0, size=(100, 2))
    records.append(CheckRecord("equivalence_oracle", "circle", k, n,
                               check_equivalence_chain(orc, zs), 1e-6))
    records.append(CheckRecord("equivalence_bie", cfg.shape_kind, k, n,
                               check_equivalence_chain(ff, zs), 0.05))

    big = solver.far_field_operator(DECAY_DIRECTIONS)
    whiches, rhos = ("ip", "ip", "norm", "norm"), (1.0, 2.0, 1.0, 2.0)
    slopes = check_decay_slope(big, whiches, rhos, DECAY_RADII)
    for which, rho, slope in zip(whiches, rhos, slopes):
        expected = -rho if which == "ip" else -rho / 2.0
        records.append(CheckRecord(f"decay_{which}_rho{rho:g}", cfg.shape_kind, k,
                                   DECAY_DIRECTIONS, abs(slope - expected), 0.2 * abs(expected)))
    return records, {}, ["verification: ok"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
# name -> (help, run(cfg, args))
COMMANDS = {
    "forward": ("solve and write the multi-static far-field matrix", lambda cfg, a: cmd_forward(cfg)),
    "image": ("evaluate an imaging grid from a far-field matrix file",
              lambda cfg, a: cmd_image(cfg, a.matrix)),
    "verify": ("run the identity/decay verification suite", lambda cfg, a: cmd_verify(cfg)),
    "oracle": ("write the closed-form disk far-field matrix", lambda cfg, a: cmd_oracle(cfg)),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="plate-echo",
        description="clamped-cavity plate scattering: forward solves, imaging, verification",
    )
    p.add_argument("--version", action="version", version=f"plate-echo {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--preset", choices=sorted(PRESETS), help="named benchmark setup")
        if name == "image":                       # the one command that adds noise
            sp.add_argument("matrix", help="far-field matrix file (from 'forward' or 'oracle')")
            sp.add_argument("--seed", type=int, help="override the noise seed")
        if name != "verify":                      # the one command that writes no file
            sp.add_argument("--out", help="override the output directory")
    return p


def _effective_config(args) -> ExperimentConfig:
    base = PRESETS[args.preset] if args.preset else ExperimentConfig()
    cfg = parse_config(args.config, base=base) if args.config else base.validate()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed).validate()
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def main(argv=None) -> int:
    """Run one command: print its records; if all pass, write its files, then print its lines."""
    args = _build_parser().parse_args(argv)
    try:
        records, files, lines = COMMANDS[args.command][1](_effective_config(args), args)
        for rec in records:
            print(rec.line())
        sys.stdout.flush()                      # a closed stdout stops the command before it writes
        failed = [rec.check for rec in records if not rec.passed]
        if failed:
            print(f"verification: FAIL (failed {', '.join(failed)}; nothing written)", file=sys.stderr)
            return EXIT_VERIFY
        _write(files)
        for line in (*lines, *(f"wrote {path}" for path in files)):
            print(line)
        return EXIT_OK
    except (ConfigError, MemoryError) as exc:   # a config too large for memory is a config error
        print(f"config error: {str(exc) or 'not enough memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"degenerate output: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


def run() -> None:
    """Entry point: main(), flush both streams, exit without interpreter teardown (it only frees
    memory: main has renamed every file and needs no atexit hook). A closed stdout exits 1."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
