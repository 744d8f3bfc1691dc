"""Command-line driver: config parsing, commands, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plate_echo
from plate_echo.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    ConfigError,
    ExperimentConfig,
    PRESETS,
    cmd_forward,
    main,
    parse_config,
    parse_config_text,
)
from plate_echo.forward import load_farfield
from plate_echo.geometry import make_curve


def test_defaults_reproduce_benchmark_setup():
    cfg = ExperimentConfig().validate()
    assert cfg.shape_kind == "star"
    assert cfg.k == 4.0
    assert cfg.n_dirs == 64
    assert cfg.quad_nodes == 128
    assert cfg.extent == (-4.0, 4.0, -4.0, 4.0)
    assert cfg.resolution == (150, 150)
    assert cfg.rho == 4.0 and cfg.which == "ip"
    assert cfg.delta == 0.0 and cfg.seed == 0
    assert cfg.mask_rows == () and cfg.mask_cols == ()


def test_presets():
    assert PRESETS["paper-star"].shape_kind == "star"
    assert PRESETS["paper-peanut"].shape_kind == "peanut"


def test_config_round_trip():
    cfg = parse_config_text(
        """
        [experiment]
        shape = peanut
        k = 3.5
        quad_nodes = 64
        [imaging]
        which = norm
        rho = 8
        resolution = 80, 90
        [noise]
        delta = 0.1
        seed = 7
        [mask]
        rows = 1-16
        cols = 48-64, 3
        [output]
        dir = out
        write_pgm = true
        """
    )
    assert cfg.mask_rows == tuple(range(1, 17))
    assert cfg.mask_cols == (*range(48, 65), 3)
    assert cfg == ExperimentConfig(
        shape_kind="peanut", shape_params=make_curve("peanut").params, k=3.5, quad_nodes=64,
        which="norm", rho=8.0, resolution=(80, 90), delta=0.1, seed=7,
        mask_rows=cfg.mask_rows, mask_cols=cfg.mask_cols, out_dir="out", write_pgm=True,
    )


def test_percent_in_config_value():
    cfg = parse_config_text("[output]\ndir = a%b\n")
    assert cfg.out_dir == "a%b"


def test_config_path_with_equals_sign(tmp_path):
    # a --config argument is always a file to read, never INI text
    path = tmp_path / "cfg=1" / "c.ini"
    path.parent.mkdir()
    path.write_text("[experiment]\nshape = circle\n")
    assert parse_config(path) == parse_config_text(path.read_text())
    assert main(["oracle", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
    assert load_farfield(tmp_path / "farfield_circle_oracle.txt").n_dirs == 64


def test_config_syntax_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("k = 4\n")
    assert main(["verify", "--config", str(path)]) == EXIT_CONFIG
    assert str(path) in capsys.readouterr().err


# a reversed mask range parsed to an empty mask, a reversed extent flipped the
# PGM and a flat one repeated one x column; each used to be written with exit 0
REVERSED_RANGES = ("[mask]\nrows = 16-1\n", "[imaging]\nextent = -4, 4, 4, -4\n",
                   "[imaging]\nextent = 1, 1, -4, 4\n")


# (config text, the name the error must mention)
UNKNOWN_KEYS = (("[noise]\ndelat = 0.1\n", "delat"), ("[imagng]\nrho = 2\n", "imagng"),
                ("[Noise]\n", "Noise"), ("[DEFAULT]\nk = 8\n", "'k'"))


def test_config_validation_errors():
    with pytest.raises(Exception):
        parse_config_text("[experiment]\nk = 0\n")
    with pytest.raises(Exception):
        parse_config_text("[experiment]\nquad_nodes = 17\n")
    with pytest.raises(Exception):
        parse_config_text("[imaging]\nwhich = both\n")
    with pytest.raises(Exception):
        parse_config_text("[mask]\nrows = 99\n")
    for text in ("[experiment]\nk = nan\n", "[experiment]\nk = inf\n",
                 "[imaging]\nrho = nan\n", "[imaging]\nrho = inf\n",
                 "[imaging]\nextent = nan, 4, -4, 4\n", "[imaging]\nextent = -4, 4, -inf, 4\n",
                 *REVERSED_RANGES):
        with pytest.raises(ConfigError):
            parse_config_text(text)
    # a misspelled key or section used to be ignored, leaving the default in force
    for text, name in UNKNOWN_KEYS:
        with pytest.raises(ConfigError, match=name):
            parse_config_text(text)


def test_unknown_config_key_writes_nothing(tmp_path, capsys, ff_star):
    from plate_echo.forward import save_farfield

    star = tmp_path / "star.txt"
    save_farfield(ff_star, star)
    cfg = tmp_path / "typo.ini"
    for text, name in UNKNOWN_KEYS:
        cfg.write_text(text)
        assert main(["image", str(star), "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err
    assert not list(tmp_path.glob("grid_*"))


def test_image_refuses_reversed_ranges(tmp_path, ff_star):
    from plate_echo.forward import save_farfield

    star = tmp_path / "star.txt"
    save_farfield(ff_star, star)
    cfg = tmp_path / "reversed.ini"
    for text in REVERSED_RANGES:
        cfg.write_text(text + "[output]\nwrite_pgm = true\n")
        assert main(["image", str(star), "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert not list(tmp_path.glob("grid_*"))


def test_forward_circle_is_circulant(tmp_path, capsys):
    cfg = parse_config_text(
        "[experiment]\nshape = circle\nshape_params = 1.0\n"
    )
    cfg = parse_config_text(f"[output]\ndir = {tmp_path}\n", base=cfg)
    path = cmd_forward(cfg)
    out = capsys.readouterr().out
    assert "check=operator_identity" in out and "pass=1" in out
    ff = load_farfield(path)
    e = ff.entries
    dev = max(
        np.abs(np.roll(np.roll(e, s, 0), s, 1) - e).max() for s in (1, 5)
    ) / np.abs(e).max()
    assert dev < 1e-8


def test_forward_refuses_failed_identity(tmp_path, capsys):
    # the star at k = 12 lies outside the solver's accurate range; the
    # identity check catches it and no far-field file may appear
    cfg = tmp_path / "k12.ini"
    cfg.write_text("[experiment]\nk = 12\n")
    out = tmp_path / "out"
    assert main(["forward", "--config", str(cfg), "--out", str(out)]) == EXIT_VERIFY
    assert "pass=0" in capsys.readouterr().out
    assert not (out / "farfield_star.txt").exists()


def test_forward_rerun_byte_identical(tmp_path):
    out = tmp_path / "a"
    assert main(["forward", "--preset", "paper-star", "--out", str(out)]) == EXIT_OK
    blob1 = (out / "farfield_star.txt").read_bytes()
    assert main(["forward", "--preset", "paper-star", "--out", str(out)]) == EXIT_OK
    assert (out / "farfield_star.txt").read_bytes() == blob1


def test_image_command(tmp_path):
    out = str(tmp_path)
    assert main(["forward", "--preset", "paper-star", "--out", out]) == EXIT_OK
    code = main(["image", f"{out}/farfield_star.txt", "--preset", "paper-star",
                 "--out", out, "--seed", "3"])
    assert code == EXIT_OK
    rows = (tmp_path / "grid_ip.csv").read_text().splitlines()
    assert rows[0] == "x,y,value"
    assert len(rows) == 1 + 150 * 150
    vals = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert vals.max() == 1.0


def test_image_byte_identical_across_processes(tmp_path):
    # each interpreter puts the grid buffers at its own addresses, so this
    # catches reductions whose SIMD sums depend on alignment
    out = str(tmp_path)
    assert main(["forward", "--preset", "paper-star", "--out", out]) == EXIT_OK
    cfg = tmp_path / "noisy.ini"
    cfg.write_text("[noise]\ndelta = 0.1\nseed = 5\n[output]\nwrite_pgm = true\n")
    src = str(Path(plate_echo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    files = []
    for run in ("a", "b"):
        run_out = tmp_path / run
        subprocess.run([sys.executable, "-m", "plate_echo.cli", "image", f"{out}/farfield_star.txt",
                        "--config", str(cfg), "--out", str(run_out)],
                       env=env, check=True, capture_output=True, timeout=300)
        files.append(((run_out / "grid_ip.csv").read_bytes(), (run_out / "grid_ip.pgm").read_bytes()))
    assert files[0] == files[1]


def test_image_n_mismatch_is_config_error(tmp_path):
    out = str(tmp_path)
    main(["forward", "--preset", "paper-star", "--out", out])
    cfg = tmp_path / "n32.ini"
    cfg.write_text("[experiment]\nn_dirs = 32\n")
    code = main(["image", f"{out}/farfield_star.txt", "--config", str(cfg), "--out", out])
    assert code == EXIT_CONFIG


def test_image_missing_matrix(tmp_path):
    assert main(["image", f"{tmp_path}/nope.txt", "--out", str(tmp_path)]) == EXIT_CONFIG


def test_image_refuses_misindexed_matrix(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["forward", "--preset", "paper-star", "--out", out]) == EXIT_OK
    path = tmp_path / "farfield_star.txt"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = "65 " + lines[2].split(" ", 1)[1]          # index above N
    path.write_text("".join(lines))
    assert main(["image", str(path), "--out", out]) == EXIT_CONFIG
    assert "row-major" in capsys.readouterr().err
    assert not (tmp_path / "grid_ip.csv").exists()


def test_missing_config_file(tmp_path):
    assert main(["verify", "--config", f"{tmp_path}/absent.ini"]) == EXIT_CONFIG


def test_non_utf8_config_is_config_error(tmp_path):
    cfg = tmp_path / "latin1.ini"
    cfg.write_bytes(b"[experiment]\nk = 4\xff\n")
    assert main(["verify", "--config", str(cfg)]) == EXIT_CONFIG


def test_oracle_command(tmp_path):
    cfg = tmp_path / "circle.ini"
    cfg.write_text("[experiment]\nshape = circle\nshape_params = 1.0\n")
    code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_OK
    ff = load_farfield(tmp_path / "farfield_circle_oracle.txt")
    assert ff.n_dirs == 64
    code = main(["oracle", "--preset", "paper-star", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_oracle_command_at_k16(tmp_path):
    cfg = tmp_path / "circle.ini"
    cfg.write_text("[experiment]\nshape = circle\nk = 16\n")
    assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert load_farfield(tmp_path / "farfield_circle_oracle.txt").k == 16.0


VERIFY_CHECKS = [
    "funk_hecke_origin", "funk_hecke_j0zero", "funk_hecke_sep10",
    "identity_oracle", "identity_bie", "disk_bie_vs_oracle",
    "equivalence_oracle", "equivalence_bie",
    "decay_ip_rho1", "decay_ip_rho2", "decay_norm_rho1", "decay_norm_rho2",
]


def test_verify_default_passes(tmp_path, capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verification: ok" in out
    assert out.count("pass=1") >= 12
    records = [line.split() for line in out.splitlines() if line.startswith("check=")]
    assert [fields[0] for fields in records] == [f"check={name}" for name in VERIFY_CHECKS]
    for fields in records:
        assert [f.split("=", 1)[0] for f in fields] == ["check", "shape", "k", "N", "value", "tol", "pass"]
        assert fields[-1] == "pass=1"


def test_verify_assembles_each_system_once(monkeypatch):
    # one solver serves both star matrices (N and the decay checks' 1024
    # directions); the disk comparison assembles the second system
    import plate_echo.forward as forward

    calls = []
    original = forward.assemble_system

    def counting(*args, **kwargs):
        calls.append(args[0].curve.kind)
        return original(*args, **kwargs)

    monkeypatch.setattr(forward, "assemble_system", counting)
    assert main(["verify"]) == EXIT_OK
    assert sorted(calls) == ["circle", "star"]


def test_verify_underresolved_fails(tmp_path):
    cfg = tmp_path / "under.ini"
    cfg.write_text("[experiment]\nquad_nodes = 16\n")
    assert main(["verify", "--config", str(cfg)]) == EXIT_VERIFY


def test_verify_too_few_directions_is_config_error(tmp_path, capsys, monkeypatch):
    # the circle-average checks need n_dirs >= 8; that is refused before any solve
    import plate_echo.forward as forward

    def no_solve(*args, **kwargs):
        raise AssertionError("verify assembled a system for a config it must refuse")

    monkeypatch.setattr(forward, "assemble_system", no_solve)
    cfg = tmp_path / "few.ini"
    for n_dirs in (4, 7):
        cfg.write_text(f"[experiment]\nn_dirs = {n_dirs}\n")
        assert main(["verify", "--config", str(cfg)]) == EXIT_CONFIG
        assert "n_dirs >= 8" in capsys.readouterr().err


def test_k_zero_is_config_error(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nk = 0\n")
    assert main(["verify", "--config", str(cfg)]) == EXIT_CONFIG
    # a NaN k passes "k <= 0"; it must still be a config error, not a solver one
    cfg.write_text("[experiment]\nshape = circle\nk = nan\n")
    for command in ("forward", "verify", "oracle"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert not list(tmp_path.glob("farfield_*"))


def test_degenerate_grid_maps_to_exit_4(tmp_path, ff_star):
    from plate_echo.forward import FarFieldMatrix, save_farfield, uniform_directions

    zero = FarFieldMatrix(
        k=4.0,
        directions=uniform_directions(64),
        entries=np.zeros((64, 64), complex),
        shape_kind="star",
    )
    path = tmp_path / "zeros.txt"
    save_farfield(zero, path)
    assert main(["image", str(path), "--out", str(tmp_path)]) == EXIT_DEGENERATE
    # a finite rho whose powers overflow: the grid peak is inf, the values NaN
    star = tmp_path / "star.txt"
    save_farfield(ff_star, star)
    cfg = tmp_path / "rho400.ini"
    cfg.write_text("[imaging]\nrho = 400\n")
    assert main(["image", str(star), "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_DEGENERATE
    assert not list(tmp_path.glob("grid_*"))


def test_solver_failure_maps_to_exit_3(tmp_path, monkeypatch):
    # cmd_forward imports the solver when it runs, so the patch goes where it looks
    import plate_echo.forward as forward

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic solver failure")

    monkeypatch.setattr(forward, "assemble_far_field_matrix", boom)
    assert main(["forward", "--out", str(tmp_path)]) == EXIT_SOLVER


def test_seed_must_be_nonnegative(tmp_path):
    assert main(["forward", "--out", str(tmp_path), "--seed", "-1"]) == EXIT_CONFIG
