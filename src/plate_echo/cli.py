"""Command-line driver: forward solves, imaging runs, verification, oracle dumps.

Commands
--------
    plate-echo forward  [--config CFG | --preset NAME] [--seed S] [--out DIR]
    plate-echo image    MATRIX_FILE [--config CFG | --preset NAME] [--seed S] [--out DIR]
    plate-echo verify   [--config CFG | --preset NAME]
    plate-echo oracle   [--config CFG | --preset NAME] [--out DIR]

Configuration is flat INI-style key=value text with section headers (see
ExperimentConfig / CONFIG_FIELDS); an unknown section or key is refused.
Every key has a default reproducing the benchmark setup (wavenumber 4, 64
directions, 150x150 grid on [-4,4]^2, rho=4 inner-product indicator, no
noise). Presets: 'paper-star', 'paper-peanut'.

Exit codes: 0 ok, 2 config error, 3 solver failure, 4 degenerate output,
5 verification failure.

Every command is a pure function of (config, input files, seed): reruns
produce byte-identical outputs. Files are written atomically (temp + rename).
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
from .farfield import load_farfield, save_farfield
from .geometry import make_curve
from .imaging import (
    ApertureMask,
    NoiseModel,
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


class VerificationFailure(RuntimeError):
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
        if not np.all(np.isfinite((self.k, self.rho, *self.extent))):
            raise ConfigError("k, rho and extent must be finite")
        if self.k <= 0:
            raise ConfigError("k must be positive")
        if self.n_dirs < 4:
            raise ConfigError("n_dirs must be >= 4")
        if self.quad_nodes < 16 or self.quad_nodes % 2:
            raise ConfigError("quad_nodes must be an even integer >= 16")
        if self.which not in ("ip", "norm"):
            raise ConfigError("which must be 'ip' or 'norm'")
        if self.rho <= 0:
            raise ConfigError("rho must be positive")
        if not 0.0 <= self.delta < 1.0:
            raise ConfigError("delta must lie in [0, 1)")
        if len(self.extent) != 4:
            raise ConfigError("extent needs four values: x_min, x_max, y_min, y_max")
        if not (self.extent[0] < self.extent[1] and self.extent[2] < self.extent[3]):
            raise ConfigError("extent needs x_min < x_max and y_min < y_max")
        if len(self.resolution) != 2 or self.resolution[0] < 2 or self.resolution[1] < 2:
            raise ConfigError("grid resolution must be two values >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        for idx in (*self.mask_rows, *self.mask_cols):
            if not 1 <= idx <= self.n_dirs:
                raise ConfigError(f"mask index {idx} outside 1..{self.n_dirs}")
        try:
            curve = self.curve()
        except ValueError as exc:
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
def _parse_indices(text: str) -> tuple:
    out = []
    for chunk in text.replace(",", " ").split():
        if "-" in chunk:
            a, b = map(int, chunk.split("-", 1))
            if b < a:
                raise ValueError(f"index range {chunk} ends below its start")
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
# parse_config_text walks this table, in this order, and refuses any section
# or key not in it. A parse that returns None keeps the base value (an empty
# shape_params means the shape's defaults).
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
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config_text(text, base, source=str(path))


def parse_config_text(text: str, base: ExperimentConfig | None = None,
                      source: str = "<string>") -> ExperimentConfig:
    """Parse INI text on top of base (default: the defaults); source names it in errors."""
    cfg = base if base is not None else ExperimentConfig()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc

    known = {row[:2] for row in CONFIG_FIELDS}
    sections = {section for section, _ in known} | {parser.default_section}
    for section, keys in parser.items():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}] in {source}")
        for key in keys:
            if (section, key) not in known:
                raise ConfigError(f"unknown config key {key!r} in section [{section}] of {source}")

    updates = {}
    try:
        for section, key, attr, parse in CONFIG_FIELDS:
            if parser.has_option(section, key):
                value = parse(parser.get(section, key))
                if value is not None:
                    updates[attr] = value
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc

    return replace(cfg, **updates).validate()


# ---------------------------------------------------------------------------
# atomic output
# ---------------------------------------------------------------------------
def _atomic_write(path: str, writer) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
def cmd_forward(cfg: ExperimentConfig) -> str:
    """Solve, check the operator identity, and write the far-field matrix file only if it passes."""
    from .forward import assemble_far_field_matrix
    from .verify import check_operator_identity

    ff = assemble_far_field_matrix(cfg.curve(), cfg.k, cfg.n_dirs, cfg.quad_nodes)
    rep = check_operator_identity(ff, tolerance=1e-2)
    print(rep.line())
    if not rep.passed:
        raise VerificationFailure("far-field matrix fails the operator identity; nothing written")
    path = os.path.join(cfg.out_dir, f"farfield_{cfg.shape_kind}.txt")
    _atomic_write(path, lambda p: save_farfield(ff, p))
    print(f"wrote {path}")
    return path


def cmd_image(cfg: ExperimentConfig, matrix_path: str) -> str:
    """Noise + mask + indicator grid from a far-field matrix file."""
    try:
        ff = load_farfield(matrix_path)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if ff.n_dirs != cfg.n_dirs:
        raise ConfigError(f"matrix has N={ff.n_dirs}, config expects N={cfg.n_dirs}")
    ff = add_noise(ff, NoiseModel(cfg.delta, cfg.seed))
    ff = apply_mask(ff, cfg.mask())
    grid = evaluate_grid(ff, cfg.extent, cfg.resolution, cfg.rho, cfg.which)
    path = os.path.join(cfg.out_dir, f"grid_{cfg.which}.csv")
    _atomic_write(path, lambda p: save_grid_csv(grid, p))
    if cfg.write_pgm:
        pgm = os.path.join(cfg.out_dir, f"grid_{cfg.which}.pgm")
        _atomic_write(pgm, lambda p: save_grid_pgm(grid, p))
    ax, ay = grid.argmax_point()
    print(
        f"image which={cfg.which} rho={cfg.rho:g} delta={cfg.delta:g} seed={cfg.seed} "
        f"argmax=({ax:.6g}, {ay:.6g}) max=1"
    )
    print(f"wrote {path}")
    return path


def cmd_oracle(cfg: ExperimentConfig) -> str:
    """Write the closed-form disk far-field matrix (circle configs only)."""
    from .oracle import disk_far_field_matrix

    if cfg.shape_kind != "circle":
        raise ConfigError("the oracle command needs shape = circle")
    ff = disk_far_field_matrix(cfg.shape_params[0], cfg.k, cfg.n_dirs)
    path = os.path.join(cfg.out_dir, "farfield_circle_oracle.txt")
    _atomic_write(path, lambda p: save_farfield(ff, p))
    print(f"wrote {path}")
    return path


def cmd_verify(cfg: ExperimentConfig) -> None:
    """Run the verification suite; prints one record per check, raises if any fails."""
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
    records.append(replace(check_operator_identity(ff, 1e-2), check="identity_bie"))

    disk_bie = assemble_far_field_matrix(make_curve("circle", (radius,)), k, n, cfg.quad_nodes)
    agree = np.abs(disk_bie.entries - orc.entries).max() / np.abs(orc.entries).max()
    records.append(CheckRecord("disk_bie_vs_oracle", "circle", k, n, agree, 1e-6))

    zs = np.random.default_rng(0).uniform(-4.0, 4.0, size=(100, 2))
    records.append(CheckRecord("equivalence_oracle", "circle", k, n,
                               check_equivalence_chain(orc, zs), 1e-6))
    records.append(CheckRecord("equivalence_bie", cfg.shape_kind, k, n,
                               check_equivalence_chain(ff, zs), 0.05))

    big = solver.far_field_matrix(DECAY_DIRECTIONS)
    whiches, rhos = ("ip", "ip", "norm", "norm"), (1.0, 2.0, 1.0, 2.0)
    slopes = check_decay_slope(big, whiches, rhos, DECAY_RADII)
    for which, rho, slope in zip(whiches, rhos, slopes):
        expected = -rho if which == "ip" else -rho / 2.0
        records.append(CheckRecord(f"decay_{which}_rho{rho:g}", cfg.shape_kind, k,
                                   DECAY_DIRECTIONS, abs(slope - expected), 0.2 * abs(expected)))

    print("\n".join(r.line() for r in records))
    if not all(r.passed for r in records):
        raise VerificationFailure("a check exceeded its tolerance")
    print("verification: ok")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="plate-echo",
        description="clamped-cavity plate scattering: forward solves, imaging, verification",
    )
    p.add_argument("--version", action="version", version=f"plate-echo {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("forward", "solve and write the multi-static far-field matrix"),
        ("image", "evaluate an imaging grid from a far-field matrix file"),
        ("verify", "run the identity/decay verification suite"),
        ("oracle", "write the closed-form disk far-field matrix"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--preset", choices=sorted(PRESETS), help="named benchmark setup")
        sp.add_argument("--seed", type=int, help="override the noise seed")
        sp.add_argument("--out", help="override the output directory")
        if name == "image":
            sp.add_argument("matrix", help="far-field matrix file (from 'forward' or 'oracle')")
    return p


def _effective_config(args) -> ExperimentConfig:
    base = PRESETS[args.preset] if args.preset else ExperimentConfig()
    cfg = parse_config(args.config, base=base) if args.config else base.validate()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed).validate()
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        if args.command == "forward":
            cmd_forward(cfg)
        elif args.command == "image":
            cmd_image(cfg, args.matrix)
        elif args.command == "oracle":
            cmd_oracle(cfg)
        elif args.command == "verify":
            cmd_verify(cfg)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VerificationFailure as exc:
        print(f"verification: FAIL ({exc})", file=sys.stderr)
        return EXIT_VERIFY
    except RuntimeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"degenerate output: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
