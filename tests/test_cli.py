"""Command-line driver: config parsing, commands, exit codes."""

import configparser
import importlib.util
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import plate_echo
from plate_echo.cli import (
    CONFIG_FIELDS,
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
)
from plate_echo.farfield import FarFieldMatrix, load_farfield, save_farfield
from plate_echo.geometry import make_curve
from plate_echo.imaging import ApertureMask, NoiseModel, add_noise, apply_mask, evaluate_grid


@pytest.fixture
def parse_text(tmp_path):
    """parse_config on INI text, written to a file first."""
    def parse(text, base=None):
        path = tmp_path / "config.ini"
        path.write_text(text, encoding="utf-8")
        return parse_config(path, base=base)
    return parse


def _cli_process(argv, cwd, unbuffered, **streams):
    """Popen of `python -m plate_echo.cli argv`; `unbuffered` sets or removes PYTHONUNBUFFERED."""
    src = str(Path(plate_echo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "plate_echo.cli", *argv], cwd=cwd, env=env, **streams)


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


def test_readme_config_example_names_every_key(parse_text):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_text(text)
    assert (cfg.shape_kind, cfg.shape_params) == ("peanut", make_curve("peanut").params)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.read_string(text)
    assert {(section, key) for section in parser.sections() for key in parser[section]} == {
        row[:2] for row in CONFIG_FIELDS}


def test_config_round_trip(parse_text):
    cfg = parse_text(
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


def test_percent_in_config_value(parse_text):
    cfg = parse_text("[output]\ndir = a%b\n")
    assert cfg.out_dir == "a%b"


def test_config_path_with_equals_sign(tmp_path):
    # a --config argument is always a file to read, never INI text
    path = tmp_path / "cfg=1" / "c.ini"
    path.parent.mkdir()
    path.write_text("[experiment]\nshape = circle\n")
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


# one value outside each rule of ExperimentConfig.validate and of the value parsers
OUT_OF_RANGE = ("[experiment]\nn_dirs = 3\n", "[imaging]\nrho = 0\n", "[imaging]\nrho = -1\n",
                "[noise]\ndelta = 1\n", "[noise]\ndelta = -0.1\n", "[imaging]\nextent = -4, 4, -4\n",
                "[imaging]\nresolution = 1, 10\n", "[imaging]\nresolution = 10\n",
                "[experiment]\nshape = hexagon\n", "[output]\nwrite_pgm = maybe\n")


@pytest.mark.parametrize("fields", [{"n_dirs": 4.5}, {"n_dirs": 64.0}, {"resolution": (2.5, 10)},
                                    {"resolution": (10, 10.0)}])
def test_config_refuses_fractional_counts(fields):
    # these passed validate(): n_dirs = 4.5 built a 5 x 5 matrix, resolution 2.5 a 2-column grid
    with pytest.raises(ConfigError, match="n_dirs must be >= 4|resolution"):
        ExperimentConfig(**fields).validate()


@pytest.mark.parametrize("fields, name", [({"quad_nodes": 128.0}, "quad_nodes"),
                                          ({"seed": 1.5}, "seed"), ({"seed": 2.0}, "seed")])
def test_config_refuses_fractional_nodes_and_seeds(fields, name):
    # these passed validate() and raised TypeError later, in the solver or in SeedSequence
    with pytest.raises(ConfigError, match=f"{name} must be"):
        ExperimentConfig(**fields).validate()


@pytest.mark.parametrize("fields", [{"rho": 0.0}, {"which": "both"}, {"delta": 1.0}, {"seed": -1},
                                    {"extent": (4.0, -4.0, -4.0, 4.0)}, {"resolution": (1, 10)},
                                    {"mask_rows": (99,)}])
def test_config_refuses_in_the_library_words(fields, ff_star):
    # validate applies the checks of the calls that image makes, so each refusal reads the same
    cfg = ExperimentConfig(**fields)
    with pytest.raises((ValueError, IndexError)) as library:
        ff = apply_mask(add_noise(ff_star, NoiseModel(cfg.delta, cfg.seed)), cfg.mask())
        evaluate_grid(ff, cfg.extent, cfg.resolution, cfg.rho, cfg.which)
    with pytest.raises(ConfigError) as config:
        cfg.validate()
    assert str(config.value) == str(library.value)


@pytest.mark.parametrize("index", [1.5, np.float64(2.0)])
def test_mask_refuses_fractional_indices(index, ff_star):
    # 1.5 passed validate(), and apply_mask then failed inside numpy's indexing
    message = f"mask index {index!r} must be an integer"
    with pytest.raises(IndexError, match=re.escape(message)):
        apply_mask(ff_star, ApertureMask(receiver_rows=(index,)))
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig(mask_cols=(index,)).validate()


def test_config_validation_errors(parse_text):
    with pytest.raises(Exception):
        parse_text("[experiment]\nk = 0\n")
    with pytest.raises(Exception):
        parse_text("[experiment]\nquad_nodes = 17\n")
    with pytest.raises(Exception):
        parse_text("[imaging]\nwhich = both\n")
    with pytest.raises(Exception):
        parse_text("[mask]\nrows = 99\n")
    for text in ("[experiment]\nk = nan\n", "[experiment]\nk = inf\n",
                 "[imaging]\nrho = nan\n", "[imaging]\nrho = inf\n",
                 "[imaging]\nextent = nan, 4, -4, 4\n", "[imaging]\nextent = -4, 4, -inf, 4\n",
                 *REVERSED_RANGES, *OUT_OF_RANGE):
        with pytest.raises(ConfigError):
            parse_text(text)
    # a misspelled key or section used to be ignored, leaving the default in force
    for text, name in UNKNOWN_KEYS:
        with pytest.raises(ConfigError, match=name):
            parse_text(text)


def test_unknown_config_key_writes_nothing(tmp_path, capsys, ff_star):

    star = tmp_path / "star.txt"
    save_farfield(ff_star, star)
    cfg = tmp_path / "typo.ini"
    for text, name in UNKNOWN_KEYS:
        cfg.write_text(text)
        assert main(["image", str(star), "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err
    assert not list(tmp_path.glob("grid_*"))


def test_mask_range_is_checked_before_it_is_expanded(tmp_path, capsys, ff_star, parse_text):
    # every index of a range used to be built before validate compared them with n_dirs

    star = tmp_path / "star.txt"
    save_farfield(ff_star, star)
    cfg = tmp_path / "wide.ini"
    cfg.write_text("[mask]\nrows = 1-2000000\n")
    assert main(["image", str(star), "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "1-2000000" in capsys.readouterr().err
    assert not list(tmp_path.glob("grid_*"))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="1-2000000"):
            parse_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    # the range is checked against the config's own n_dirs, parsed before [mask]
    assert parse_text("[experiment]\nn_dirs = 128\n[mask]\nrows = 65-128\n").mask_rows == \
        tuple(range(65, 129))
    with pytest.raises(ConfigError, match="0-3"):
        parse_text("[mask]\ncols = 0-3\n")


def test_unwritable_out_is_config_error(tmp_path, capsys, ff_star):
    # --out below a regular file: the output directory cannot be made

    star = tmp_path / "star.txt"
    save_farfield(ff_star, star)
    circle = tmp_path / "circle.ini"
    circle.write_text("[experiment]\nshape = circle\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub"
    for argv in (["oracle", "--config", str(circle)], ["image", str(star)]):
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert f"cannot write {out}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "circle.ini", "star.txt"]
    # the rename onto a directory fails after the temporary file is written: it goes too
    out = tmp_path / "out"
    (out / "grid_ip.csv").mkdir(parents=True)
    assert main(["image", str(star), "--out", str(out)]) == EXIT_CONFIG
    assert str(out / "grid_ip.csv") in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["grid_ip.csv"]


def test_image_writes_all_or_none(tmp_path, capsys, ff_star):
    # the PGM's rename fails after the CSV's has gone through: the CSV must go too

    star = tmp_path / "star.txt"
    save_farfield(ff_star, star)
    cfg = tmp_path / "pgm.ini"
    cfg.write_text("[output]\nwrite_pgm = true\n")
    out = tmp_path / "out"
    (out / "grid_ip.pgm").mkdir(parents=True)
    assert main(["image", str(star), "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"cannot write {out / 'grid_ip.pgm'}" in captured.err and captured.out == ""
    assert [p.name for p in out.iterdir()] == ["grid_ip.pgm"]


def test_image_pgm_is_a_valid_raster(tmp_path, capsys, ff_star):

    spec = importlib.util.spec_from_file_location(
        "perfbench_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    star = tmp_path / "star.txt"
    save_farfield(ff_star, star)
    cfg = tmp_path / "pgm.ini"
    cfg.write_text("[imaging]\nresolution = 40, 30\n[output]\nwrite_pgm = true\n")
    assert main(["image", str(star), "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [f"wrote {tmp_path / 'grid_ip.csv'}", f"wrote {tmp_path / 'grid_ip.pgm'}"]
    _, _, values = reference.parse_grid_csv(tmp_path / "grid_ip.csv")
    img = reference.parse_pgm(tmp_path / "grid_ip.pgm")
    assert img.shape == (30, 40)
    np.testing.assert_array_equal(img, np.clip(np.rint(values * 255.0), 0, 255)[::-1])


def test_output_modes_follow_the_umask(tmp_path, ff_star):
    # each file gets 0o666 & ~umask, as open() would give, not mkstemp's 0o600

    star = tmp_path / "star.txt"
    save_farfield(ff_star, star)
    cfg = tmp_path / "pgm.ini"
    cfg.write_text("[imaging]\nresolution = 20, 20\n[output]\nwrite_pgm = true\n")
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        out = tmp_path / f"out{umask:o}"
        old = os.umask(umask)
        try:
            assert main(["forward", "--out", str(out)]) == EXIT_OK
            assert main(["image", str(star), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        finally:
            os.umask(old)
        names = ["farfield_star.txt", "grid_ip.csv", "grid_ip.pgm"]
        assert sorted(p.name for p in out.iterdir()) == names
        assert all((out / name).stat().st_mode & 0o777 == mode for name in names)


def test_non_finite_shape_parameters_are_one_config_error(tmp_path, capsys):
    # they used to reach the curve's formulas and print numpy warnings before the error
    # a finite star whose acceleration overflows is refused the same way
    cfg = tmp_path / "inf.ini"
    for shape, params, message in (
        ("peanut", "inf", "shape 'peanut' parameters must be finite"),
        ("peanut", "nan", "shape 'peanut' parameters must be finite"),
        ("star", "1e308, 0.3, 4", "shape 'star': non-finite boundary data"),
    ):
        cfg.write_text(f"[experiment]\nshape = {shape}\nshape_params = {params}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["forward", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_clockwise_or_open_shape_is_config_error(tmp_path, capsys):
    # the clockwise kite wrote a wrong far field with exit 0, and the open star
    # failed the identity check (exit 5) instead of being refused as a config error
    cfg = tmp_path / "shape.ini"
    for shape, params, message in (
        ("kite", "0.65, -1.5", "shape 'kite': parametrization is not counterclockwise"),
        ("star", "1.5, 0.3, 4.5", "star petal count must be an integer so the curve closes, got 4.5"),
    ):
        cfg.write_text(f"[experiment]\nshape = {shape}\nshape_params = {params}\n")
        assert main(["forward", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_image_refuses_reversed_ranges(tmp_path, ff_star):

    star = tmp_path / "star.txt"
    save_farfield(ff_star, star)
    cfg = tmp_path / "reversed.ini"
    for text in REVERSED_RANGES:
        cfg.write_text(text + "[output]\nwrite_pgm = true\n")
        assert main(["image", str(star), "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert not list(tmp_path.glob("grid_*"))


def test_forward_circle_is_circulant(tmp_path, capsys, parse_text):
    cfg = parse_text(
        "[experiment]\nshape = circle\nshape_params = 1.0\n"
    )
    cfg = parse_text(f"[output]\ndir = {tmp_path}\n", base=cfg)
    records, files, lines = cmd_forward(cfg)
    assert [(rec.check, rec.passed) for rec in records] == [("operator_identity", True)]
    assert lines == [] and capsys.readouterr().out == ""     # a command prints nothing itself
    (path, writer), = files.items()
    assert path == str(tmp_path / "farfield_circle.txt") and not os.path.exists(path)
    writer(path)
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
    captured = capsys.readouterr()
    assert "pass=0" in captured.out and "wrote" not in captured.out
    assert captured.err == "verification: FAIL (failed operator_identity; nothing written)\n"
    assert not out.exists()


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
    files = []
    for run in ("a", "b"):
        run_out = tmp_path / run
        proc = _cli_process(["image", f"{out}/farfield_star.txt", "--config", str(cfg), "--out", str(run_out)],
                            tmp_path, True, stdout=subprocess.DEVNULL)
        assert proc.wait(timeout=300) == EXIT_OK
        files.append(((run_out / "grid_ip.csv").read_bytes(), (run_out / "grid_ip.pgm").read_bytes()))
    assert files[0] == files[1]


def test_image_n_mismatch_is_config_error(tmp_path):
    out = str(tmp_path)
    main(["forward", "--preset", "paper-star", "--out", out])
    cfg = tmp_path / "n32.ini"
    cfg.write_text("[experiment]\nn_dirs = 32\n")
    code = main(["image", f"{out}/farfield_star.txt", "--config", str(cfg), "--out", out])
    assert code == EXIT_CONFIG


def test_image_k_mismatch_is_config_error(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["forward", "--preset", "paper-star", "--out", out]) == EXIT_OK
    cfg = tmp_path / "k8.ini"
    cfg.write_text("[experiment]\nk = 8\n")
    code = main(["image", f"{out}/farfield_star.txt", "--config", str(cfg), "--out", out])
    assert code == EXIT_CONFIG
    assert "matrix has k=4.0, config expects k=8.0" in capsys.readouterr().err
    assert not (tmp_path / "grid_ip.csv").exists()


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
    # one solver serves the star's N-direction matrix and the decay checks'
    # 1024-direction operator; the disk comparison assembles the second system
    import plate_echo.forward as forward

    calls = []
    original = forward.assemble_system

    def counting(*args, **kwargs):
        calls.append(args[0].curve.kind)
        return original(*args, **kwargs)

    monkeypatch.setattr(forward, "assemble_system", counting)
    assert main(["verify"]) == EXIT_OK
    assert sorted(calls) == ["circle", "star"]


def test_verify_tabulates_no_decay_matrix(monkeypatch):
    # the decay checks apply F through the solver: the only matrix built is the N = 64 one
    import plate_echo.forward as forward

    n_dirs = []
    original = forward.ScatteringSolver.far_field_matrix

    def recording(self, n):
        n_dirs.append(n)
        return original(self, n)

    monkeypatch.setattr(forward.ScatteringSolver, "far_field_matrix", recording)
    assert main(["verify"]) == EXIT_OK
    assert n_dirs == [64, 64]


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
        out = [] if command == "verify" else ["--out", str(tmp_path)]
        assert main([command, "--config", str(cfg), *out]) == EXIT_CONFIG
    assert not list(tmp_path.glob("farfield_*"))


def test_degenerate_grid_maps_to_exit_4(tmp_path, ff_star):
    zero = FarFieldMatrix(k=4.0, entries=np.zeros((64, 64), complex), shape_kind="star")
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


def test_solver_failure_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    # cmd_forward imports the solver when it runs, so the patch goes where it looks
    import plate_echo.forward as forward

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic solver failure")

    monkeypatch.setattr(forward, "assemble_far_field_matrix", boom)
    assert main(["forward", "--out", str(tmp_path)]) == EXIT_SOLVER
    monkeypatch.undo()
    capsys.readouterr()
    # at k = 300 the modified-Helmholtz kernels overflow: a non-finite system is
    # a solver failure, not a degenerate output; so is the small-k disk, whose
    # mode determinant overflows. Each refusal is its one message, no warning.
    cfg = tmp_path / "refused.ini"
    for command, text, message in (
        ("forward", "k = 300", "assembled system overflows at k=300"),
        ("verify", "k = 300", "assembled system overflows at k=300"),
        ("forward", "shape_params = 1e150, 0.3, 4", "assembled system overflows at k=4"),
        ("oracle", "shape = circle\nk = 1e-6", "determinant zero or not finite"),
    ):
        cfg.write_text(f"[experiment]\n{text}\n")
        out = [] if command == "verify" else ["--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg), *out]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg]


def test_unconverged_oracle_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    import plate_echo.oracle as oracle

    # no mode tail is ever exactly zero, so the order search gives up
    monkeypatch.setattr(oracle, "MODE_TAIL_TOL", 0.0)
    with pytest.raises(RuntimeError, match="mode tail not converged"):
        oracle._converged_modes(1.0, 4.0)
    cfg = tmp_path / "circle.ini"
    cfg.write_text("[experiment]\nshape = circle\n")
    assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver error: mode tail not converged") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg]


def test_out_of_memory_is_config_error(tmp_path, capsys, monkeypatch, ff_star):
    # a config too large for memory ends in one config-error line, not a
    # traceback; nothing is allocated here, the calls raise as numpy would
    import plate_echo.cli as cli
    import plate_echo.forward as forward

    def numpy_refuses(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    def interpreter_refuses(*args, **kwargs):
        raise MemoryError()

    star = tmp_path / "star.txt"
    forward.save_farfield(ff_star, star)
    monkeypatch.setattr(cli, "evaluate_grid", numpy_refuses)
    monkeypatch.setattr(forward, "assemble_far_field_matrix", interpreter_refuses)
    for argv, message in (
        (["image", str(star)], "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"),
        (["forward"], "not enough memory"),
    ):
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == [star]


def test_seed_must_be_nonnegative(tmp_path, capsys, ff_star):

    star = tmp_path / "star.txt"
    save_farfield(ff_star, star)
    assert main(["image", str(star), "--out", str(tmp_path), "--seed", "-1"]) == EXIT_CONFIG
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert not list(tmp_path.glob("grid_*"))


def test_options_a_command_does_not_use_are_usage_errors(tmp_path, capsys):
    # verify writes no file and only image adds noise: the parser refuses the
    # option instead of ignoring it
    for argv in (["verify", "--out", str(tmp_path)], ["oracle", "--seed", "5"],
                 ["forward", "--seed", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# the process entry point: cli.run flushes, then exits without teardown
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "block-buffered"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, unbuffered):
    # `plate-echo forward ... | true`: the pipe has no reader before the first
    # record is printed, so the command stops before it writes its file
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "out"
    try:
        proc = _cli_process(["forward", "--preset", "paper-star", "--out", str(out)], tmp_path,
                            unbuffered, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1
    assert err == b""
    assert not out.exists()


def test_commands_flush_under_block_buffering(tmp_path, capsys):
    # os._exit skips the interpreter's own flush; without run()'s flushes a
    # block-buffered pipe would deliver none of these lines
    def cold(argv):
        proc = _cli_process(argv, tmp_path, False, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=300)
        return proc.returncode, out, err

    assert main(["verify", "--preset", "paper-star"]) == EXIT_OK
    code, out, err = cold(["verify", "--preset", "paper-star"])
    assert (code, out, err) == (EXIT_OK, capsys.readouterr().out, "")
    assert len(out.splitlines()) == 13 and out.endswith("verification: ok\n")

    code, out, err = cold(["forward", "--config", str(tmp_path / "missing.ini")])
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: ") and err.count("\n") == 1

    cfg = tmp_path / "k12.ini"
    cfg.write_text("[experiment]\nk = 12\n")
    code, out, err = cold(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_VERIFY
    assert out.startswith("check=operator_identity") and "pass=0" in out and out.count("\n") == 1
    assert err == "verification: FAIL (failed operator_identity; nothing written)\n"
    assert not (tmp_path / "out").exists()


def test_installed_command_takes_the_hard_exit():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["plate-echo"] == "plate_echo.cli:run"
