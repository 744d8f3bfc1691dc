"""Show that every output check passes on genuine output and fails on a perturbed copy.

Run from the root of a checkout:  python3 perfbench/selftest.py
Exits 0 when each check accepts the genuine input and rejects every
perturbation, 1 otherwise. Takes a few seconds; files go to perfbench/runs/.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import io
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np

import checks
import workloads
from plate_echo import cli, forward, geometry, imaging, verify

K = 4.0


def perturbed(a, index=(0, 1), factor=1.0 + 1e-6):
    out = np.array(a, copy=True)
    out[index] *= factor
    return out


def rewrite(src, dst, edit):
    with open(src, encoding="utf-8") as fh:
        text = fh.read()
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(edit(text))
    return dst


def main() -> int:
    work = BENCH / "runs" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    p = lambda name: str(work / name)  # noqa: E731
    try:
        star = geometry.make_curve("star")
        ff = forward.assemble_far_field_matrix(star, K, 64, 128)
        fine = forward.assemble_far_field_matrix(star, K, 64, 256, node_offset=0.3)
        disk = forward.assemble_far_field_matrix(geometry.make_curve("circle"), K, 64, 128)
        F = ff.entries
        noisy = imaging.add_noise(ff, imaging.NoiseModel(0.1, 7)).entries
        mask = imaging.ApertureMask((1, 2), (5,))
        masked = imaging.apply_mask(imaging.add_noise(ff, imaging.NoiseModel(0.1, 7)), mask).entries
        extent, res = (-4.0, 4.0, -4.0, 4.0), (41, 37)
        grid = imaging.evaluate_grid(ff, extent, res, 4.0, "ip")
        xs, ys, vals = grid.xs, grid.ys, grid.values
        samples = [(3, 5), (20, 30), (36, 40), (18, 20)]
        moved = np.array(vals, copy=True)
        moved[0, 0] = 2.0
        moved /= 2.0
        imaging.save_grid_csv(grid, p("g.csv"))
        imaging.save_grid_pgm(grid, p("g.pgm"))
        forward.save_farfield(ff, p("f.txt"))
        with open(p("g.pgm"), "rb") as fh:
            raw = fh.read()
        with open(p("flipped.pgm"), "wb") as fh:
            fh.write(raw[:-1] + bytes([raw[-1] ^ 1]))
        big = forward.assemble_far_field_matrix(star, K, 1024, 128)
        slope = verify.check_decay_slope(big, "ip", 1.0, workloads.DECAY_RADII)
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(["verify", "--preset", "paper-star"])
        report = buf.getvalue()
        first = f"{xs[0]:.17g},{ys[0]:.17g},{vals[0, 0]:.17g}\n"
        changed = f"{xs[0]:.17g},{ys[0]:.17g},{vals[0, 0] * (1 + 1e-9):.17g}\n"

        def swap_rows(text):
            lines = text.split("\n")
            lines[1], lines[2] = lines[2], lines[1]
            return "\n".join(lines)
        cases = [
            ("identity", checks.identity(F), checks.identity(perturbed(F))),
            ("reciprocity", checks.reciprocity(F), checks.reciprocity(perturbed(F))),
            ("self-convergence", checks.close(F, fine.entries, checks.CONVERGENCE_TOL, "n"),
             checks.close(perturbed(F), fine.entries, checks.CONVERGENCE_TOL, "n")),
            ("disk vs closed form", checks.disk(disk.entries, 1.0, K),
             checks.disk(disk.entries, 1.0 + 1e-6, K)),
            ("grid vs direct evaluation",
             checks.grid_values(vals, xs, ys, F, K, 4.0, "ip", samples),
             checks.grid_values(vals, xs, ys, perturbed(F, (3, 9), 1.001), K, 4.0, "ip",
                                samples)),
            ("grid max is 1", checks.grid_values(vals, xs, ys, F, K, 4.0, "ip", []),
             checks.grid_values(0.5 * vals, xs, ys, F, K, 4.0, "ip", [])),
            ("grid axes", checks.axes(xs, ys, extent, res),
             checks.axes(xs, ys[::-1], extent, res)),
            ("argmax inside", checks.argmax_inside(vals, xs, ys, "star"),
             checks.argmax_inside(moved, xs, ys, "star")),
            ("noise bound", checks.noise_bound(noisy, F, 0.1),
             checks.noise_bound(perturbed(noisy, (2, 2), 1.3), F, 0.1)),
            ("noise applied", checks.noise_bound(noisy, F, 0.1), checks.noise_bound(F, F, 0.1)),
            ("noise-free data", checks.noise_bound(F, F, 0.0), checks.noise_bound(noisy, F, 0.0)),
            ("mask zeroes", checks.noise_bound(masked, F, 0.1, mask.receiver_rows, mask.source_cols),
             checks.noise_bound(noisy, F, 0.1, mask.receiver_rows, mask.source_cols)),
            ("csv values", checks.csv_roundtrip(p("g.csv"), xs, ys, vals),
             checks.csv_roundtrip(rewrite(p("g.csv"), p("v.csv"),
                                          lambda t: t.replace(first, changed, 1)), xs, ys, vals)),
            ("csv order", checks.csv_roundtrip(p("g.csv"), xs, ys, vals),
             checks.csv_roundtrip(rewrite(p("g.csv"), p("o.csv"), swap_rows), xs, ys, vals)),
            ("pgm raster", checks.pgm(p("g.pgm"), vals), checks.pgm(p("flipped.pgm"), vals)),
            ("far-field entries", checks.farfield_file(p("f.txt"), F, K, "star"),
             checks.farfield_file(p("f.txt"), perturbed(F, (5, 5), 1.0 + 1e-12), K, "star")),
            ("far-field k", checks.farfield_file(p("f.txt"), F, K, "star"),
             checks.farfield_file(rewrite(p("f.txt"), p("k.txt"),
                                          lambda t: t.replace(" k=4 ", " k=5 ", 1)), F, K, "star")),
            ("far-field order", checks.farfield_file(p("f.txt"), F, K, "star"),
             checks.farfield_file(rewrite(p("f.txt"), p("o.txt"),
                                          lambda t: t.replace("\n1 1 ", "\n1 9 ", 1)), F, K, "star")),
            ("far-field size", checks.header(p("f.txt"), "N=64"),
             checks.header(rewrite(p("f.txt"), p("n.txt"),
                                   lambda t: t.replace(" N=64 ", " N=65 ", 1)), "N=64")),
            ("byte identity", checks.same_bytes(p("f.txt"), p("f.txt")),
             checks.same_bytes(p("f.txt"), p("k.txt"))),
            ("decay slope", checks.slope(slope, -1.0, "ip"), checks.slope(1.3 * slope, -1.0, "ip")),
            ("verify records", checks.verify_lines(report, 12),
             checks.verify_lines(report.replace("pass=1", "pass=0", 1), 12)),
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = 0
    for name, genuine, broken in cases:
        ok = not genuine and bool(broken)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: genuine {genuine or 'passes'}; "
              f"perturbed {broken[0] if broken else 'PASSES'}")
    print(f"selftest: {len(cases) - bad}/{len(cases)} checks pass genuine and reject perturbed input")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
