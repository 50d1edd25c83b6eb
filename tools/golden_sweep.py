"""Run a fixed list of CLI invocations and keep everything each one leaves.

    python tools/golden_sweep.py OUTDIR

Every case runs through ``quatsurf.cli.main`` in this process, with the
working directory set to its own subdirectory ``OUTDIR/NN-name`` and
``--outdir out``, so every path a report or a message names is relative
and two sweeps into different directories give the same bytes.  Each
case directory holds ``argv.txt``, ``stdout.txt``, ``stderr.txt``,
``exit_code.txt`` and the artifacts under ``out/``; OUTDIR is made if
missing, and a case directory already there is an error.  The list
covers every command and every flag at least once, at n <= 33,
including the configuration errors (exit 1), the rejected initial rows
and the sphere march aborts (exit 2).  Two cases run at n = 257, past
the row-split threshold, so that the whole-grid kernels split their rows
over two threads there: a Bonnet pair, and a dual, whose path integrals
split as well.

Two sweeps of the same tree must agree byte for byte (``diff -r``); a
sweep of a change against one of its parent shows every output the
change moved.
"""

import contextlib
import io
import os
import sys
import warnings

import numpy as np

from quatsurf.cli import main
from quatsurf.generators import make_surface
from quatsurf.io import write_field_csv

# the generate case whose CSV the --input cases read
_FIELDS = "../01-generate-cylinder/out/cylinder_fields.csv"


def _setup_plane():
    """A flat 17 x 17 sample: x, y, px, py, pz with pz = 0."""
    rows = ["%g,%g,%g,%g,0" % (i / 16, j / 16, i / 16, j / 16)
            for j in range(17) for i in range(17)]
    with open("plane.csv", "w") as fh:
        fh.write("x,y,px,py,pz\n" + "\n".join(rows) + "\n")


def _setup_qdiff():
    # phi = 1 on the unrotated cylinder's grid
    grid = make_surface("cylinder", n=33).imm.grid
    write_field_csv("qdiff.csv", grid,
                    {"re_phi": np.ones((grid.ny, grid.nx)),
                     "im_phi": np.zeros((grid.ny, grid.nx))})


def _setup_header_only():
    with open("header_only.csv", "w") as fh:
        fh.write("x,y,px,py,pz\n")


def _setup_report_in_the_way():
    os.makedirs("out/analyze_report.json")


# (name, argv, setup run in the case directory first or None)
CASES = [
    ("generate-cylinder",
     "generate --generator cylinder --n 33", None),
    ("generate-sphere",
     "generate --generator sphere --n 17 --param rotation=0.4 "
     "--chart-tol 2e-3", None),
    ("generate-unduloid", "generate --generator unduloid --n 17", None),
    ("analyze-catenoid",
     "analyze --generator catenoid --n 33 --umbilic-tol 1e-5", None),
    ("analyze-enneper", "analyze --generator enneper --n 33", None),
    ("analyze-input", "analyze --input " + _FIELDS, None),
    ("analyze-plane", "analyze --input plane.csv", _setup_plane),
    ("dual-catenoid", "dual --generator catenoid --n 33", None),
    ("dual-input", "dual --input %s --q 1 --closed-tol 1e-2" % _FIELDS,
     None),
    ("dual-qdiff", "dual --generator cylinder --n 33 --qdiff qdiff.csv",
     _setup_qdiff),
    ("dual-plane", "dual --input plane.csv --q 1", _setup_plane),
    ("dual-catenoid-split",
     "dual --generator catenoid --n 257 --param rotation=0.3", None),
    ("bonnet-cylinder", "bonnet --generator cylinder --n 33 --eps 0.7", None),
    ("bonnet-enneper",
     "bonnet --generator enneper --n 33 --umbilic-tol 5e-2", None),
    ("bonnet-unduloid", "bonnet --generator unduloid --n 33 --eps 0.8", None),
    ("bonnet-enneper-split",
     "bonnet --generator enneper --n 257 --eps 0.8", None),
    ("solve-ivp-cylinder",
     "solve-ivp --generator cylinder --param rotation=0.5 --n 33", None),
    ("solve-ivp-cylinder-row",
     "solve-ivp --generator cylinder --param rotation=0.5 --n 33 --row 10 "
     "--steps 6 --det-tol 0.02", None),
    ("solve-ivp-sphere-abort",
     "solve-ivp --generator sphere --param rotation=0.2 --n 33 --steps 12",
     None),
    ("solve-ivp-sphere-upward-abort",
     "solve-ivp --generator sphere --param rotation=0.15 --n 33 --row 22 "
     "--steps 14", None),
    ("solve-ivp-sphere-downward-abort",
     "solve-ivp --generator sphere --param rotation=0.2 --n 33 --row 24 "
     "--steps 14", None),
    # rejected initial rows: exit 2 from the non-characteristic test
    ("solve-ivp-cylinder-characteristic",
     "solve-ivp --generator cylinder --q 1 --n 17", None),
    ("solve-ivp-enneper-zero-row", "solve-ivp --generator enneper --n 17",
     None),
    ("solve-ivp-enneper-characteristic",
     "solve-ivp --generator enneper --n 18", None),
    ("verify-all", "verify --all", None),
    ("verify-checks",
     "verify --check quaternion_algebra --check io_roundtrip --n 17 "
     "--seed 3", None),
    ("verify-n17", "verify --n 17", None),
    ("converge-weingarten",
     "converge --kind weingarten --generator sphere --n 9 --levels 3", None),
    ("converge-dual",
     "converge --kind dual --generator catenoid --n 17 --levels 2", None),
    ("converge-bonnet",
     "converge --kind bonnet --generator cylinder --n 17 --levels 2 "
     "--eps 0.7 --closed-tol 1e-2 --chart-tol 2e-3", None),
    ("converge-ivp",
     "converge --kind ivp --generator cylinder --param rotation=0.5 --n 17 "
     "--levels 2 --q 1j --row 8 --steps 4 --det-tol 0.02 --closed-tol 1e-2 "
     "--chart-tol 2e-3", None),
    # configuration errors: exit 1 and one JSON line
    ("error-small-n", "analyze --generator cylinder --n 4", None),
    ("error-eps-nan", "bonnet --generator cylinder --n 17 --eps nan", None),
    ("error-q-nan", "dual --generator cylinder --n 17 --q nan", None),
    ("error-unwritable-report", "analyze --generator cylinder --n 17",
     _setup_report_in_the_way),
    ("error-generator", "analyze --generator mobius", None),
    ("error-kind", "converge --kind foo --generator cylinder", None),
    ("error-n-not-int", "analyze --generator cylinder --n 4.5", None),
    ("error-flag-of-another-command",
     "generate --generator cylinder --seed 1", None),
    ("error-chart-tol-inf",
     "analyze --generator cylinder --n 17 --chart-tol inf", None),
    ("error-check", "verify --check nope", None),
    ("error-all-and-check", "verify --all --check quaternion_algebra", None),
    ("error-header-only", "analyze --input header_only.csv",
     _setup_header_only),
    ("error-missing-input", "analyze --input missing.csv", None),
    ("error-row", "solve-ivp --generator cylinder --n 17 --row 40", None),
    ("error-param",
     "generate --generator sphere --n 17 --param radius=2", None),
    ("error-qdiff-grid", "dual --generator cylinder --n 17 --qdiff qdiff.csv",
     _setup_qdiff),
]


def run_case(casedir, argv, setup):
    os.makedirs(casedir)
    here = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(casedir)
        if setup is not None:
            setup()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            # a fresh filter shows each warning of this case once
            warnings.simplefilter("default")
            code = main(argv.split() + ["--outdir", "out"])
    finally:
        os.chdir(here)
    for name, text in (("argv.txt", argv + "\n"),
                       ("stdout.txt", out.getvalue()),
                       ("stderr.txt", err.getvalue()),
                       ("exit_code.txt", "%d\n" % code)):
        with open(os.path.join(casedir, name), "w") as fh:
            fh.write(text)
    return code


def main_sweep(outdir):
    os.makedirs(outdir, exist_ok=True)
    for k, (name, argv, setup) in enumerate(CASES, start=1):
        code = run_case(os.path.join(outdir, "%02d-%s" % (k, name)), argv,
                        setup)
        print("%02d-%s exit %d" % (k, name, code))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/golden_sweep.py OUTDIR")
    main_sweep(sys.argv[1])
