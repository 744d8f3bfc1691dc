"""The four workloads: inputs made from the seed, one pass of operations, checks.

A workload's `setup` runs in a fresh interpreter (see run.py) and writes the
files its passes read. The runner builds the workload object in its own
process, calls `ops()` once, and then runs passes: every operation of the
list, in order, timed as a whole. After each pass every operation's output
goes through its check; an operation with a `known_fault` is expected to fail
its check on every seed and is counted as failed without making the run
incorrect. `final_checks` runs once after the timed passes, for checks too
heavy to repeat.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
import reference as ref
from plate_echo import cli, forward, geometry, imaging, verify

K = 4.0
N_PAPER = 64


@dataclass
class Op:
    """One operation of a pass; `check(output, outputs_of_the_pass)` lists problems."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], list]
    known_fault: str = ""


class Workload:
    in_process = True     # False: the pass runs in child processes

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.last = {}        # outputs of the current pass so far, by operation name

    @staticmethod
    def setup(seed: int, workdir: str) -> None:
        """Make the input files the passes read (nothing by default)."""

    def ops(self) -> list:
        raise NotImplementedError

    def final_checks(self, outputs: dict) -> list:
        return []

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)


# ---------------------------------------------------------------------------
class SolveHires(Workload):
    """High-resolution library forward solves plus the unit disk at two wavenumbers."""

    NODES = (512, 1024)
    DISK_NODES = 256
    DISK_FAULT = ("global log split of the modified-Helmholtz blocks in "
                  "forward.assemble_system: I_0/I_1 cancel against K_0/K_1")

    def ops(self):
        ops = []
        for kind in ("star", "peanut"):
            curve = geometry.make_curve(kind)
            for n in self.NODES:
                offset = float(self.rng.uniform(0.0, 2.0 * np.pi))
                ops.append(Op(
                    f"{kind}-{n}",
                    lambda c=curve, n=n, o=offset:
                        forward.assemble_far_field_matrix(c, K, N_PAPER, n, node_offset=o),
                    self._check_shape(kind, n)))
        circle = geometry.make_curve("circle")
        for k in (4.0, 16.0):
            offset = float(self.rng.uniform(0.0, 2.0 * np.pi))
            ops.append(Op(
                f"disk-k{k:g}",
                lambda k=k, o=offset:
                    forward.assemble_far_field_matrix(circle, k, N_PAPER, self.DISK_NODES,
                                                      node_offset=o),
                lambda ff, _, k=k: checks.disk(ff.entries, 1.0, k),
                known_fault=self.DISK_FAULT if k == 16.0 else ""))
        return ops

    def _check_shape(self, kind, n):
        coarse = f"{kind}-{self.NODES[0]}"

        def check(ff, outputs):
            problems = checks.identity(ff.entries) + checks.reciprocity(ff.entries)
            if n != self.NODES[0] and isinstance(outputs.get(coarse), forward.FarFieldMatrix):
                problems += checks.close(outputs[coarse].entries, ff.entries,
                                         checks.CONVERGENCE_TOL, f"{coarse} vs {kind}-{n}")
            return problems
        return check


# ---------------------------------------------------------------------------
class ImageFine(Workload):
    """The `image` command's path in process on fine grids from N=64 matrix files."""

    RESOLUTION = (300, 300)
    EXTENT = (-4.0, 4.0, -4.0, 4.0)
    RHO = 4.0
    MASK = imaging.ApertureMask(tuple(range(1, 17)), tuple(range(33, 49)))
    # (label, delta, partial aperture, indicator)
    CASES = (("clean-ip", 0.0, False, "ip"), ("clean-norm", 0.0, False, "norm"),
             ("noisy-ip", 0.2, False, "ip"), ("partial-ip", 0.05, True, "ip"))

    @staticmethod
    def setup(seed, workdir):
        for kind in ("star", "peanut"):
            ff = forward.assemble_far_field_matrix(geometry.make_curve(kind), K, N_PAPER, 128)
            forward.save_farfield(ff, os.path.join(workdir, f"farfield_{kind}.txt"))

    def ops(self):
        ops = []
        for kind in ("star", "peanut"):
            source = self.path(f"farfield_{kind}.txt")
            _, clean = ref.parse_farfield(source)
            for label, delta, partial, which in self.CASES:
                name = f"{kind}-{label}"
                noise = imaging.NoiseModel(delta, int(self.rng.integers(2**32)))
                mask = self.MASK if partial else imaging.ApertureMask()
                samples = list(zip(self.rng.integers(self.RESOLUTION[1], size=8),
                                   self.rng.integers(self.RESOLUTION[0], size=8)))
                ops.append(Op(name,
                              lambda s=source, n=noise, m=mask, w=which, name=name:
                                  self._image(s, n, m, w, name),
                              self._checker(kind, clean, delta, mask, which, samples)))
        return ops

    def _image(self, source, noise, mask, which, name):
        ff = imaging.apply_mask(imaging.add_noise(forward.load_farfield(source), noise), mask)
        grid = imaging.evaluate_grid(ff, self.EXTENT, self.RESOLUTION, self.RHO, which)
        csv, pgm = self.path(f"grid_{name}.csv"), self.path(f"grid_{name}.pgm")
        imaging.save_grid_csv(grid, csv)
        imaging.save_grid_pgm(grid, pgm)
        return ff.entries, grid, csv, pgm

    def _checker(self, kind, clean, delta, mask, which, samples):
        def check(out, _):
            data, grid, csv, pgm = out
            problems = checks.noise_bound(data, clean, delta, mask.receiver_rows,
                                          mask.source_cols)
            problems += checks.axes(grid.xs, grid.ys, self.EXTENT, self.RESOLUTION)
            problems += checks.grid_values(grid.values, grid.xs, grid.ys, data, K, self.RHO,
                                           which, samples)
            if mask.is_empty():
                problems += checks.argmax_inside(grid.values, grid.xs, grid.ys, kind)
            return (problems + checks.csv_roundtrip(csv, grid.xs, grid.ys, grid.values)
                    + checks.pgm(pgm, grid.values))
        return check


# ---------------------------------------------------------------------------
DECAY_RADII = np.geomspace(10.0, 100.0, 12)   # the radii of `plate-echo verify`
DECAY_FITS = (("ip", 1.0), ("ip", 2.0), ("norm", 1.0), ("norm", 2.0))


class WideAperture(Workload):
    """N=1024 directions at a modest node count: large files, identity and decay fits."""

    N_DIRS = 1024
    NODES = 256

    def ops(self):
        star = geometry.make_curve("star")
        offset = float(self.rng.uniform(0.0, 2.0 * np.pi))
        path = self.path("farfield_star_1024.txt")
        ops = [
            Op("assemble",
               lambda: forward.assemble_far_field_matrix(star, K, self.N_DIRS, self.NODES,
                                                         node_offset=offset),
               lambda ff, _: checks.identity(ff.entries) + checks.reciprocity(ff.entries)),
            Op("save", lambda: forward.save_farfield(self.last["assemble"], path),
               lambda _, __: checks.header(path, f"N={self.N_DIRS}")),
            Op("load", lambda: forward.load_farfield(path),
               lambda ff, outs: checks.equal(ff.entries, outs["assemble"].entries,
                                             "load(save(F))")),
            Op("identity", lambda: verify.check_operator_identity(self.last["load"]),
               lambda rep, outs: [] if rep.passed else [f"identity report failed: {rep.line()}"]),
        ]
        for which, rho in DECAY_FITS:
            expected = -rho if which == "ip" else -rho / 2.0
            ops.append(Op(
                f"decay-{which}-{rho:g}",
                lambda w=which, r=rho: verify.check_decay_slope(self.last["load"], w, r,
                                                                DECAY_RADII),
                lambda s, _, e=expected, w=which: checks.slope(s, e, w)))
        self.file = path
        return ops

    def final_checks(self, outputs):
        ff = outputs["assemble"]
        return checks.farfield_file(self.file, ff.entries, K, "star")


# ---------------------------------------------------------------------------
class CliPaper(Workload):
    """The paper setup typed at the command line, each command a cold process.

    Traced runs call `cli.main` in process instead, so the layers below it
    are seen.
    """

    in_process = False
    child_peak_kb = 0     # largest resident set of one command, KiB
    VERIFY_RECORDS = 12
    RESOLUTION = (150, 150)
    EXTENT = (-4.0, 4.0, -4.0, 4.0)

    @staticmethod
    def setup(seed, workdir):
        files = {
            "circle.ini": "[experiment]\nshape = circle\nk = 4\nn_dirs = 64\n",
            "noisy.ini": "[noise]\ndelta = 0.1\n\n[output]\nwrite_pgm = true\n",
        }
        for name, text in files.items():
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            cli.parse_config(path)

    def ops(self):
        d = self.path
        noise_seed = str(int(self.rng.integers(2**31)))
        star_file, peanut_file = d("star", "farfield_star.txt"), d("peanut", "farfield_peanut.txt")
        samples = list(zip(self.rng.integers(150, size=8), self.rng.integers(150, size=8)))
        commands = (
            ("forward-star", ["forward", "--preset", "paper-star", "--out", d("star")],
             lambda out, _: self._check_forward(out, star_file)),
            ("forward-peanut", ["forward", "--preset", "paper-peanut", "--out", d("peanut")],
             lambda out, _: self._check_forward(out, peanut_file)),
            ("image-star", ["image", star_file, "--preset", "paper-star", "--out", d("star")],
             lambda out, _: self._check_image(out, d("star", "grid_ip.csv"), "star",
                                              star_file, samples)),
            ("image-peanut-noisy", ["image", peanut_file, "--preset", "paper-peanut",
                                    "--config", d("noisy.ini"), "--seed", noise_seed,
                                    "--out", d("noisy")],
             lambda out, _: self._check_image(out, d("noisy", "grid_ip.csv"), "peanut",
                                              None, (), d("noisy", "grid_ip.pgm"))),
            ("oracle", ["oracle", "--config", d("circle.ini"), "--out", d("oracle")],
             lambda out, _: self._check_oracle(out, d("oracle", "farfield_circle_oracle.txt"))),
            ("verify", ["verify", "--preset", "paper-star"],
             lambda out, _: self._exit(out) + checks.verify_lines(out[1], self.VERIFY_RECORDS)),
            ("forward-star-again", ["forward", "--preset", "paper-star", "--out", d("again")],
             lambda out, _: self._exit(out) + checks.same_bytes(
                 star_file, d("again", "farfield_star.txt"))),
        )
        return [Op(name, lambda argv=argv: self._command(argv), check)
                for name, argv, check in commands]

    def _command(self, argv):
        """(exit code, combined output) of one command."""
        if self.tracer is not None:
            buf = io.StringIO()
            with self.tracer.span(f"cli.{argv[0]}"), redirect_stdout(buf), redirect_stderr(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        log = self.path("command.log")
        with open(log, "w+b") as fh:
            proc = subprocess.Popen([sys.executable, "-m", "plate_echo.cli", *argv],
                                    cwd=self.workdir, stdout=fh,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(120.0, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
            fh.seek(0)
            return proc.returncode, fh.read().decode("utf-8", "replace")

    @staticmethod
    def _exit(out):
        return [] if out[0] == 0 else [f"exit code {out[0]}: {out[1].strip()[-300:]}"]

    def _check_forward(self, out, path):
        problems = self._exit(out)
        if "pass=1" not in out[1]:
            problems.append("identity record does not say pass=1")
        try:
            _, F = ref.parse_farfield(path)
        except (OSError, ValueError, KeyError) as exc:
            return problems + [f"{path}: {exc}"]
        return problems + checks.identity(F) + checks.reciprocity(F)

    def _check_image(self, out, csv, kind, matrix, samples, pgm=None):
        problems = self._exit(out)
        try:
            xs, ys, values = ref.parse_grid_csv(csv)
        except (OSError, ValueError) as exc:
            return problems + [f"{csv}: {exc}"]
        problems += checks.axes(xs, ys, self.EXTENT, self.RESOLUTION)
        problems += checks.argmax_inside(values, xs, ys, kind)
        if matrix is not None:
            _, F = ref.parse_farfield(matrix)
            problems += checks.grid_values(values, xs, ys, F, K, 4.0, "ip", samples)
        elif values.max() != 1.0:
            problems.append(f"grid max is {values.max()!r}, not 1")
        if pgm is not None:
            problems += checks.pgm(pgm, values)
        return problems

    def _check_oracle(self, out, path):
        problems = self._exit(out)
        try:
            _, F = ref.parse_farfield(path)
        except (OSError, ValueError, KeyError) as exc:
            return problems + [f"{path}: {exc}"]
        return problems + checks.disk(F, 1.0, K, checks.ORACLE_TOL)


WORKLOADS = {
    "solve-hires": SolveHires,
    "image-fine": ImageFine,
    "wide-aperture": WideAperture,
    "cli-paper": CliPaper,
}
