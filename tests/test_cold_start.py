"""Start-up: the numpy-only commands load no scipy, and lazy names still resolve.

Each cold-path check runs in a fresh interpreter, since this test process
has long since imported scipy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import plate_echo
from plate_echo.farfield import save_farfield

SRC = Path(plate_echo.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# plate_echo.__all__, written out so that a change to the public names shows here
PUBLIC_NAMES = [
    "ParametricCurve", "make_curve", "SHAPE_KINDS",
    "BoundaryDiscretization", "FarFieldMatrix", "ScatteringSolver",
    "discretize", "assemble_system",
    "assemble_far_field_matrix", "save_farfield", "load_farfield",
    "disk_far_field_matrix",
    "NoiseModel", "ApertureMask", "ImagingGrid",
    "add_noise", "apply_mask", "phi_z", "w_ip", "w_norm", "evaluate_grid",
    "CheckRecord", "check_funk_hecke", "check_operator_identity",
    "check_decay_slope", "check_equivalence_chain", "reconstruction_overlap",
    "__version__",
]


def run_python(*snippets: str) -> str:
    """Run the snippets in a fresh interpreter that imports plate_echo from this tree; return stdout."""
    code = "\n".join(textwrap.dedent(s) for s in snippets)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy'))"

COLD_PATHS = {
    "pipeline": """
        from plate_echo import cli
        ff = cli.apply_mask(cli.add_noise(cli.load_farfield(MATRIX), cli.NoiseModel(0.1, 3)),
                            cli.ApertureMask((1, 2, 3), (10,)))
        grid = cli.evaluate_grid(ff, (-4.0, 4.0, -4.0, 4.0), (40, 30), 4.0, "ip")
        cli.save_grid_csv(grid, OUT + "/grid.csv")
    """,
    "image": """
        from plate_echo import cli
        assert cli.main(["image", MATRIX, "--out", OUT]) == cli.EXIT_OK
    """,
    "version": """
        from plate_echo import cli
        try:
            cli.main(["--version"])
        except SystemExit as exc:
            assert exc.code == 0
    """,
    "config_error": """
        from plate_echo import cli
        for command in ("forward", "verify", "oracle"):
            assert cli.main([command, "--config", BAD_CONFIG]) == cli.EXIT_CONFIG
    """,
}


@pytest.mark.parametrize("path", sorted(COLD_PATHS))
def test_numpy_only_paths_load_no_scipy(path, tmp_path, ff_star):
    matrix = tmp_path / "farfield_star.txt"
    save_farfield(ff_star, matrix)
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nk = 0\n")
    out = run_python(f"import sys\nMATRIX, OUT, BAD_CONFIG = {str(matrix)!r}, {str(tmp_path)!r}, {str(bad)!r}",
                     COLD_PATHS[path], f"print({SCIPY_MODULES})")
    assert out.splitlines()[-1] == "[]"


def test_public_names_resolve_on_first_use():
    assert sorted(plate_echo.__all__) == sorted(PUBLIC_NAMES)
    namespace = {}
    exec("from plate_echo import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["ScatteringSolver"] is sys.modules["plate_echo.forward"].ScatteringSolver
    assert set(PUBLIC_NAMES) <= set(dir(plate_echo))
    with pytest.raises(AttributeError):
        plate_echo.no_such_name


def test_benchmark_tracer_finds_a_target_for_every_layer_metric():
    # The benchmark wraps only the plate_echo modules that its workloads'
    # import loads; a metric whose targets are all missing prints null. The
    # rule below is the one spans.Tracer.layer_metrics applies.
    out = run_python(f"""
        import json, sys
        sys.path.insert(0, {str(PERFBENCH)!r})
        from plate_echo import cli, forward, geometry, imaging, verify
        import spans

        tracer = spans.Tracer()
        tracer.install()
        feeds = {{}}
        for modname, path, name, _, _ in spans.TARGETS:
            feeds.setdefault(name, []).append(f"{{modname}}.{{path}}")
        dead = {{name for name, targets in feeds.items()
                 if all(t in tracer.missing for t in targets)}}
        print(json.dumps([metric for metric, (_, _, names) in spans.LAYER_METRICS.items()
                          if all(name in dead for name in names)]))
    """)
    assert json.loads(out) == []
