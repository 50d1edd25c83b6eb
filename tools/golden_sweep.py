"""Run a fixed list of CLI invocations, keep everything each one leaves,
and check each exit against the command-line contract.

    python tools/golden_sweep.py OUTDIR [--manifest PATH]

Every case runs through ``quatsurf.cli.main`` in this process, with the
working directory set to its own subdirectory ``OUTDIR/NN-name`` and
``--outdir out``, so every path a report or a message names is relative
and two sweeps into different directories give the same bytes.  Each
case directory holds ``argv.txt``, ``stdout.txt``, ``stderr.txt``,
``exit_code.txt`` and the artifacts under ``out/``; OUTDIR is made if
missing, and a case directory already there is an error.  Beside each
``<name>.json`` report the sweep also keeps ``<name>.full.json``, the
same report at full float precision (the report itself rounds its floats
to 12 significant digits), so a one-ulp change to a report figure shows
in the sweep too.  The list
covers every command and every flag at least once, at n <= 33,
including the configuration errors (exit 1), the rejected initial rows
and the sphere march aborts (exit 2).  Two cases run at n = 257, past
the row-split threshold, so that the whole-grid kernels split their rows
over two threads there: a Bonnet pair, and a dual, whose path integrals
split as well.

Each case names the exit code it must give and, where it leaves a JSON
error line, that line's error class, module and operation.  Every run
must also keep the command-line contract, which ``contract_breach``
states and the CLI tests check with it.  ``main_sweep`` returns the
cases that break either, and the script prints each as ``NN-name exit K
(reason)`` and exits 1.

Two sweeps of the same tree must agree byte for byte (``diff -r``); a
sweep of a change against one of its parent shows every output the
change moved.

    python tools/golden_sweep.py OUTDIR --manifest tools/golden.sha256

also writes the manifest of the sweep: a header naming the Python and
numpy versions and the machine, then one ``sha256 size path`` line per
file under OUTDIR, sorted by path.  The committed ``tools/golden.sha256``
is the manifest of this tree; the test suite hashes its own sweep
against it, so a change that moves an output regenerates it and the
diff of the manifest lists the moved files.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import warnings

import numpy as np

import quatsurf.cli
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


def _setup_qdiff(path="qdiff.csv", generator="cylinder"):
    # phi = 1 on the unrotated n=33 grid of a catalog surface
    grid = make_surface(generator, n=33).imm.grid
    write_field_csv(path, grid, {"re_phi": np.ones((grid.ny, grid.nx)),
                                 "im_phi": np.zeros((grid.ny, grid.nx))})


def _setup_header_only():
    with open("header_only.csv", "w") as fh:
        fh.write("x,y,px,py,pz\n")


def _setup_report_in_the_way():
    os.makedirs("out/analyze_report.json")


# (name, expected, argv, setup run in the case directory first or None);
# expected is the exit code, or the (exit code, error, module, operation)
# of the JSON error line the case must leave, as these shared ones
_PARSE = (1, "ConfigError", "quatsurf.cli", "parse")
_MARCH = (2, "RuntimeError", "quatsurf.cauchy", "march_solve")
_WELLPOSED = (2, "ValueError", "quatsurf.cauchy", "check_wellposed")
_QDIFF = (1, "ConfigError", "quatsurf.cli", "dual")
CASES = [
    ("generate-cylinder", 0,
     "generate --generator cylinder --n 33", None),
    ("generate-sphere", 0,
     "generate --generator sphere --n 17 --param rotation=0.4 "
     "--chart-tol 2e-3", None),
    ("generate-unduloid", 0, "generate --generator unduloid --n 17", None),
    ("analyze-catenoid", 0,
     "analyze --generator catenoid --n 33 --umbilic-tol 1e-5", None),
    ("analyze-enneper", 0, "analyze --generator enneper --n 33", None),
    ("analyze-input", 0, "analyze --input " + _FIELDS, None),
    ("analyze-plane", 0, "analyze --input plane.csv", _setup_plane),
    ("dual-catenoid", 0, "dual --generator catenoid --n 33", None),
    ("dual-input", 0, "dual --input %s --q 1 --closed-tol 1e-2" % _FIELDS,
     None),
    ("dual-qdiff", 0, "dual --generator cylinder --n 33 --qdiff qdiff.csv",
     _setup_qdiff),
    ("dual-plane", 0, "dual --input plane.csv --q 1", _setup_plane),
    ("dual-catenoid-split", 0,
     "dual --generator catenoid --n 257 --param rotation=0.3", None),
    ("bonnet-cylinder", 0, "bonnet --generator cylinder --n 33 --eps 0.7",
     None),
    ("bonnet-enneper", 0,
     "bonnet --generator enneper --n 33 --umbilic-tol 5e-2", None),
    ("bonnet-unduloid", 0, "bonnet --generator unduloid --n 33 --eps 0.8",
     None),
    ("bonnet-enneper-split", 0,
     "bonnet --generator enneper --n 257 --eps 0.8", None),
    ("solve-ivp-cylinder", 0,
     "solve-ivp --generator cylinder --param rotation=0.5 --n 33", None),
    ("solve-ivp-cylinder-row", 0,
     "solve-ivp --generator cylinder --param rotation=0.5 --n 33 --row 10 "
     "--steps 6 --det-tol 0.02", None),
    ("solve-ivp-sphere-abort", _MARCH,
     "solve-ivp --generator sphere --param rotation=0.2 --n 33 --steps 12",
     None),
    ("solve-ivp-sphere-upward-abort", _MARCH,
     "solve-ivp --generator sphere --param rotation=0.15 --n 33 --row 22 "
     "--steps 14", None),
    ("solve-ivp-sphere-downward-abort", _MARCH,
     "solve-ivp --generator sphere --param rotation=0.2 --n 33 --row 24 "
     "--steps 14", None),
    # rejected initial rows: exit 2 from the non-characteristic test
    ("solve-ivp-cylinder-characteristic", _WELLPOSED,
     "solve-ivp --generator cylinder --q 1 --n 17", None),
    ("solve-ivp-enneper-zero-row",
     (2, "ValueError", "quatsurf.quaddiff", "noncharacteristic"),
     "solve-ivp --generator enneper --n 17", None),
    ("solve-ivp-enneper-characteristic", _WELLPOSED,
     "solve-ivp --generator enneper --n 18", None),
    ("verify-all", 0, "verify --all", None),
    ("verify-checks", 0,
     "verify --check quaternion_algebra --check io_roundtrip --n 17 "
     "--seed 3", None),
    ("verify-n17", 2, "verify --n 17", None),
    ("converge-weingarten", 0,
     "converge --kind weingarten --generator sphere --n 9 --levels 3", None),
    ("converge-dual", 0,
     "converge --kind dual --generator catenoid --n 17 --levels 2", None),
    ("converge-bonnet", 0,
     "converge --kind bonnet --generator cylinder --n 17 --levels 2 "
     "--eps 0.7 --closed-tol 1e-2 --chart-tol 2e-3", None),
    ("converge-ivp", 0,
     "converge --kind ivp --generator cylinder --param rotation=0.5 --n 17 "
     "--levels 2 --q 1j --row 8 --steps 4 --det-tol 0.02 --closed-tol 1e-2 "
     "--chart-tol 2e-3", None),
    # configuration errors: exit 1 and one JSON line
    ("error-small-n", _PARSE, "analyze --generator cylinder --n 4", None),
    ("error-eps-nan", _PARSE, "bonnet --generator cylinder --n 17 --eps nan",
     None),
    ("error-q-nan", _PARSE, "dual --generator cylinder --n 17 --q nan", None),
    ("error-unwritable-report",
     (1, "ConfigError", "quatsurf.io", "write_report"),
     "analyze --generator cylinder --n 17", _setup_report_in_the_way),
    ("error-generator", _PARSE, "analyze --generator mobius", None),
    ("error-kind", _PARSE, "converge --kind foo --generator cylinder", None),
    ("error-n-not-int", _PARSE, "analyze --generator cylinder --n 4.5", None),
    ("error-flag-of-another-command", _PARSE,
     "generate --generator cylinder --seed 1", None),
    ("error-chart-tol-inf", _PARSE,
     "analyze --generator cylinder --n 17 --chart-tol inf", None),
    ("error-check", _PARSE, "verify --check nope", None),
    ("error-all-and-check", _PARSE, "verify --all --check quaternion_algebra",
     None),
    ("error-header-only",
     (1, "ConfigError", "quatsurf.io", "read_positions_csv"),
     "analyze --input header_only.csv", _setup_header_only),
    ("error-missing-input", _PARSE, "analyze --input missing.csv", None),
    ("error-row", (1, "ConfigError", "quatsurf.cli", "solve-ivp"),
     "solve-ivp --generator cylinder --n 17 --row 40", None),
    ("error-param", _PARSE,
     "generate --generator sphere --n 17 --param radius=2", None),
    ("error-qdiff-grid", _QDIFF,
     "dual --generator cylinder --n 17 --qdiff qdiff.csv", _setup_qdiff),
    # as many nodes as the surface's grid, but another spacing and origin
    ("error-qdiff-placement", _QDIFF,
     "dual --generator cylinder --n 33 --qdiff qdiff_sphere.csv",
     lambda: _setup_qdiff("qdiff_sphere.csv", "sphere")),
]


def run_case(casedir, argv, setup):
    """Run one case in ``casedir``; return its exit code and stderr."""
    os.makedirs(casedir)
    here = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    write_report = quatsurf.cli.write_report

    def write_both(path, report):
        write_report(path, report)
        with open(os.path.splitext(path)[0] + ".full.json", "w") as fh:
            json.dump(report, fh, sort_keys=True, default=lambda o: (
                o.tolist() if hasattr(o, "tolist") else repr(o)))

    quatsurf.cli.write_report = write_both
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
        quatsurf.cli.write_report = write_report
        os.chdir(here)
    for name, text in (("argv.txt", argv + "\n"),
                       ("stdout.txt", out.getvalue()),
                       ("stderr.txt", err.getvalue()),
                       ("exit_code.txt", "%d\n" % code)):
        with open(os.path.join(casedir, name), "w") as fh:
            fh.write(text)
    return code, err.getvalue()


def contract_breach(argv, code, err, outdir):
    """How a CLI run of argv (without ``--outdir``) that exited with code,
    wrote err to stderr and had the output directory outdir breaks the
    command-line contract, or None.  The contract: the code is 0, 1 or 2;
    exit 0, or a ``verify`` run that left ``verify_report.json``, leaves
    stderr empty; any other exit leaves exactly one stderr line, a JSON
    object whose ``exit_code`` is the code; an error of operation
    ``parse`` leaves no output directory."""
    if code not in (0, 1, 2):
        return "exit code %r is not 0, 1 or 2" % (code,)
    if code == 0 or (argv[:1] == ["verify"] and os.path.exists(
            os.path.join(outdir, "verify_report.json"))):
        return None if err == "" else "expected an empty stderr"
    lines = err.splitlines()
    try:
        payload = json.loads(lines[0]) if len(lines) == 1 else None
    except ValueError:
        payload = None
    if not (isinstance(payload, dict) and payload.get("exit_code") == code):
        return "expected one JSON error line"
    if payload.get("operation") == "parse" and os.path.exists(outdir):
        return "a parse error left %s" % outdir
    return None


def _complaint(casedir, argv, code, expected, err):
    """How a case's exit breaks its expectation or the contract, or None."""
    expected = expected if isinstance(expected, tuple) else (expected,)
    if code != expected[0]:
        return "expected %d" % expected[0]
    breach = contract_breach(argv.split(), code, err,
                             os.path.join(casedir, "out"))
    if breach is not None or len(expected) == 1:
        return breach
    payload = json.loads(err or "{}")
    for key, want in zip(("error", "module", "operation"), expected[1:]):
        if payload.get(key) != want:
            return "%s %r, expected %r" % (key, payload.get(key), want)
    return None


def main_sweep(outdir):
    """Run every case into ``outdir``; return ``NN-name exit K (reason)``
    for each case that breaks its expectation or the contract."""
    os.makedirs(outdir, exist_ok=True)
    broken = []
    for k, (name, expected, argv, setup) in enumerate(CASES, start=1):
        casedir = os.path.join(outdir, "%02d-%s" % (k, name))
        code, err = run_case(casedir, argv, setup)
        line = "%02d-%s exit %d" % (k, name, code)
        print(line)
        complaint = _complaint(casedir, argv, code, expected, err)
        if complaint is not None:
            broken.append("%s (%s)" % (line, complaint))
    return broken


def environment():
    """The manifest header: what the bytes of a sweep depend on besides
    the code."""
    return ["# python %s" % platform.python_version(),
            "# numpy %s" % np.__version__,
            "# machine %s" % platform.machine()]


def manifest(outdir):
    """The manifest lines of the sweep in ``outdir``: the environment,
    then ``sha256 size path`` per file, sorted by path (with forward
    slashes)."""
    lines = []
    for root, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, outdir).replace(os.sep, "/")
            lines.append((rel, "%s %d %s" % (hashlib.sha256(data).hexdigest(),
                                             len(data), rel)))
    return environment() + [line for _, line in sorted(lines)]


def manifest_differences(outdir, path):
    """Compare the sweep in ``outdir`` with the manifest at ``path``.

    Returns (header lines of the manifest that this environment does not
    match, paths that differ); a path differs when its hash or size
    moved or when it is on one side only."""
    with open(path) as fh:
        want = fh.read().splitlines()
    got = manifest(outdir)
    env = [line for line in want if line.startswith("#") and line not in got]
    want, got = ({line.split(" ", 2)[2]: line for line in lines
                  if not line.startswith("#")} for lines in (want, got))
    return env, sorted(rel for rel in want.keys() | got.keys()
                       if want.get(rel) != got.get(rel))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Run the golden sweep into OUTDIR.")
    parser.add_argument("outdir")
    parser.add_argument("--manifest", metavar="PATH",
                        help="also write the manifest of the sweep to PATH")
    args = parser.parse_args()
    broken = main_sweep(args.outdir)
    if args.manifest:
        with open(args.manifest, "w") as fh:
            fh.write("\n".join(manifest(args.outdir)) + "\n")
    if broken:
        sys.exit("\n".join(broken))
