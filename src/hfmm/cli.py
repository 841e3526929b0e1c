"""Command-line harness: accuracy sweeps, scaling benchmarks, validation.

Subcommands
-----------
accuracy   Table-style error sweep against a high-order reference run.
bench      Wall-time scaling over a particle-count sweep with a fitted
           exponent.
validate   Runs the cross-module invariant checks; nonzero exit on any
           failure.

Each quantity has one setting: --k is k1 in every medium, and a media
flag the medium does not read is refused.  The keys of an INI file
(section [hfmm]) are the subcommand's own flags, read by the same
parser before the command line's, whose flags win.  Output is CSV
(versioned header) or JSON with the same fields.  Exit codes: 0 pass,
1 validation failure, 2 usage error, reported as one error: line.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time

import numpy as np

from . import expansions as ex
from .driver import RunConfig, direct_apply, error_metric, fmm_apply
from .greens import MediaConfig, Point2, QuadratureConvergenceError, scattered_batch
from .layered import compute_A
from .specfun import hankel0
from .tree import Particle

CSV_VERSION = "# hfmm-csv v1"
CSV_HEADER = "scenario,media,k,alpha,P,N,metric,value,seconds"


# each medium's constructor and the media flags past --k that it reads,
# with their defaults; every other media flag is refused for it
_MEDIA = {"free": (MediaConfig.free, {}),
          "two-layer": (MediaConfig.two_layer, {"alpha": 1.0}),
          "three-layer": (MediaConfig.three_layer, {"k2": 0.8, "k3": 0.6, "d": 0.8})}
_MEDIA_FLAGS = [flag for _, reads in _MEDIA.values() for flag in reads]


def build_media(args) -> MediaConfig:
    """The --media medium: --k is its top-layer wavenumber k1, then the flags it reads.

    A media flag the medium does not read, given on the command line or
    in the INI file, is a usage error.
    """
    make, reads = _MEDIA[args.media]
    for name in _MEDIA_FLAGS:
        if name not in reads and getattr(args, name) is not None:
            raise UsageError(f"--media {args.media} does not read --{name}")
    return make(args.k, *(default if getattr(args, name) is None else getattr(args, name)
                          for name, default in reads.items()))


def grid_particles(nx: int, ny: int, center=(0.0, 1.5), side=1.0):
    gx = np.linspace(center[0] - side / 2, center[0] + side / 2, nx)
    gy = np.linspace(center[1] - side / 2, center[1] + side / 2, ny)
    X, Y = np.meshgrid(gx, gy)
    return X.ravel(), Y.ravel()


def random_particles(seed: int, n: int, center=(0.0, 1.5), side=1.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(center[0] - side / 2, center[0] + side / 2, n)
    ys = rng.uniform(center[1] - side / 2, center[1] + side / 2, n)
    return xs, ys


def _particles(xs, ys, qs):
    return [Particle(Point2(x, y), q) for x, y, q in zip(xs, ys, qs)]


def _run_config(args, media, order, n):
    """RunConfig of one sweep run; cache=PATH gives each run PATH.P<order>.N<n>.S<seed>."""
    if args.tables == "precompute":
        cache = ""
    elif args.tables.startswith("cache=") and args.tables != "cache=":
        # a table file holds one P and one rescaled medium (set by the
        # particles' root box, so by N and the seed), so each run gets its own
        cache = f"{args.tables[len('cache='):]}.P{order}.N{n}.S{args.seed}"
    else:
        raise UsageError(f"--tables takes precompute or cache=PATH, not {args.tables!r}")
    return RunConfig(media=media, order=order, leaf_capacity=args.leaf_size,
                     table_cache=cache)


def _note(args, text):  # a line for people: on stderr when the rows take stdout
    print(text, file=sys.stdout if args.out else sys.stderr)


def _row(args, media, P, N, metric, value, seconds):
    """One output row; media is a MediaConfig or, with k and alpha blank, a variant name."""
    fixed = isinstance(media, MediaConfig)
    return {
        "scenario": args.command,
        "media": media.variant if fixed else media,
        "k": media.k1 if fixed else "",
        "alpha": media.alpha if fixed and media.variant == "two-layer" else "",
        "P": P,
        "N": N,
        "metric": metric,
        "value": value,
        "seconds": 0.0 if args.timings == "none" else round(seconds, 3),
    }


def cmd_accuracy(args):
    media = build_media(args)
    if args.n == int(round(np.sqrt(args.n)) ** 2):
        nx = int(round(np.sqrt(args.n)))
        xs, ys = grid_particles(nx, nx)
    else:
        xs, ys = random_particles(args.seed, args.n)
    parts = _particles(xs, ys, np.random.default_rng(args.seed).normal(size=len(xs)))

    t0 = time.perf_counter()
    ref = fmm_apply(parts, _run_config(args, media, args.p_ref, args.n))
    t_ref = time.perf_counter() - t0
    rows = [_row(args, media, args.p_ref, args.n, "reference", 0.0, t_ref)]
    for P in args.p:
        t1 = time.perf_counter()
        out = fmm_apply(parts, _run_config(args, media, P, args.n))
        dt = time.perf_counter() - t1
        err = error_metric(ref, out, len(parts))
        rows.append(_row(args, media, P, args.n, "E_p", err, dt))
    return rows, 0


def cmd_bench(args):
    if not args.n_list:
        raise UsageError("bench requires a nonempty --n-list sweep")
    media = build_media(args)
    hide = args.timings == "none"  # timing values are nondeterministic
    rows, totals = [], []
    for N in args.n_list:
        xs, ys = random_particles(args.seed, N)
        parts = _particles(xs, ys, np.random.default_rng(args.seed).normal(size=N))
        out = fmm_apply(parts, _run_config(args, media, args.p, N))
        for phase, seconds in out.timings.items():
            rows.append(_row(args, media, args.p, N, f"time_{phase}",
                             0.0 if hide else round(seconds, 6), seconds))
        if not hide:  # --timings none keeps only the zeroed timing rows
            for name, count in out.counts.items():
                rows.append(_row(args, media, args.p, N, name, count, 0.0))
        totals.append(out.timings["total"])
    if len(args.n_list) >= 2:
        beta = float(np.polyfit(np.log(args.n_list), np.log(totals), 1)[0])
        rows.append(_row(args, media, args.p, 0, "beta", 0.0 if hide else round(beta, 4),
                         sum(totals)))
        _note(args, f"fitted scaling exponent beta = {beta:.4f}")
    return rows, 0


# ---------------------------------------------------------------------------
# validation checks


def check_sommerfeld_identity(seed=11):
    """Free-space kernel against its spectral split: the alpha = 0 two-layer
    scattered field (reflectance 1) at dy = |y - y0| in place of y + y0.

    With reflectance 1 the split depends on k only through k dx and k dy,
    so the pairs of both wavenumbers (0.1 and 1) make one k = 1 batch at
    their offsets times k.
    """
    rng = np.random.default_rng(seed)
    dx, dy = [], []
    for k in (0.1, 1.0):
        for _ in range(25):
            x0 = Point2(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            x = Point2(x0.x + rng.uniform(0.5, 3.0) * rng.choice([-1, 1]),
                       x0.y + rng.uniform(0.5, 3.0))
            dx.append(k * (x.x - x0.x))
            dy.append(k * abs(x.y - x0.y))
    split = scattered_batch(MediaConfig.two_layer(1.0, 0.0), dx, dy)
    worst = float(np.abs(split - 0.25j * hankel0(np.hypot(dx, dy))).max())
    return worst, worst <= 1e-10


def check_boundary_residual(alpha=1.0):
    """Impedance condition du/dn - i*alpha*u = 0 on y = 0 (n = -y), one batch of 60 pairs."""
    media = MediaConfig.two_layer(1.0, 1.0)
    h = 1e-5
    dx, y = np.meshgrid(np.linspace(-2.0, 2.0, 20), [h, -h, 0.0])
    up, dn, u0 = 0.25j * hankel0(np.hypot(dx, y - 1.0)) + scattered_batch(media, dx, y + 1.0)
    dudn = -(up - dn) / (2 * h)
    worst = float(np.max(np.abs(dudn - 1j * alpha * u0) / np.abs(u0)))
    return worst, worst <= 1e-6


def check_reciprocity(seed=12, alpha=1.0):
    """u^s(a; b) = u^s(b; a) for 10 pairs, both directions in one batch."""
    rng = np.random.default_rng(seed)
    media = MediaConfig.two_layer(1.0, alpha)
    points = np.array([(rng.uniform(-1, 1), rng.uniform(0.2, 2.0)) for _ in range(20)])
    a, b = points[0::2].T, points[1::2].T
    ab, ba = scattered_batch(media, [a[0] - b[0], b[0] - a[0]], [a[1] + b[1], b[1] + a[1]])
    worst = float(np.abs(ab - ba).max())
    return worst, worst <= 1e-12


def check_equal_wavenumber(seed=13):
    media = MediaConfig.three_layer(1.0, 1.0, 1.0, 0.7)
    rng = np.random.default_rng(seed)
    dx = rng.uniform(-2, 2, 20)
    dy = rng.uniform(0.3, 3.0, 20)
    worst = float(np.abs(scattered_batch(media, dx, dy, 1e-13)).max())
    return worst, worst <= 1e-12


def check_alpha_zero_mirror(seed=14, alpha=0.0):
    """With alpha = 0 the scattered field of x0 is the free field of its mirror image."""
    media = MediaConfig.two_layer(1.0, alpha)
    rng = np.random.default_rng(seed)
    points = np.array([(rng.uniform(-1, 1), rng.uniform(0.2, 2.0)) for _ in range(20)])
    x0, x = points[0::2].T, points[1::2].T
    dx, dy = x[0] - x0[0], x[1] + x0[1]
    image = 0.25j * hankel0(media.k1 * np.hypot(dx, dy))
    worst = float(np.abs(scattered_batch(media, dx, dy) - image).max())
    return worst, worst <= 1e-12


def check_toeplitz(alpha=1.0):
    media = MediaConfig.two_layer(1.0, alpha)
    P = 12
    entries = compute_A([0.25], [2.5], media, P)[0][0]
    mat = ex.translation_matrix(entries, P)
    worst = 0.0
    for d in range(-2 * P, 2 * P + 1):
        diag = np.diagonal(mat, offset=d)
        if len(diag):
            worst = max(worst, float(np.abs(diag - entries[d + 2 * P]).max() /
                                     max(np.abs(entries[d + 2 * P]), 1.0)))
    return worst, worst <= 1e-14


def check_oracle_agreement(seed=15, alpha=1.0):
    rng = np.random.default_rng(seed)
    n = 120
    media = MediaConfig.two_layer(1.0, alpha)
    parts = _particles(rng.uniform(-0.5, 0.5, n), rng.uniform(0.5, 1.5, n),
                       rng.normal(size=n))
    ref = direct_apply(parts, media, tol=1e-12)
    out = fmm_apply(parts, RunConfig(media=media, order=22, leaf_capacity=25))
    err = error_metric(ref, out, n)
    return err, err <= 1e-9


# (name, the medium the check runs on, check); each check sets its own medium
VALIDATION_CHECKS = [
    ("sommerfeld-identity", "free", check_sommerfeld_identity),
    ("boundary-residual", "two-layer", check_boundary_residual),
    ("reciprocity", "two-layer", check_reciprocity),
    ("equal-wavenumber-three-layer", "three-layer", check_equal_wavenumber),
    ("alpha-zero-mirror", "two-layer", check_alpha_zero_mirror),
    ("toeplitz", "two-layer", check_toeplitz),
    ("oracle-agreement", "two-layer", check_oracle_agreement),
]


def cmd_validate(args):
    if args.list:
        for name, _, _ in VALIDATION_CHECKS:
            print(name)
        return [], 0
    rows, failed = [], False
    for name, media, fn in VALIDATION_CHECKS:
        t0 = time.perf_counter()
        try:
            value, ok = fn()
            note = ""
        except (ValueError, ArithmeticError, QuadratureConvergenceError) as exc:
            value, ok, note = float("nan"), False, f": {exc}"
        dt = time.perf_counter() - t0
        failed = failed or not ok
        _note(args, f"{name} ({media}): {'pass' if ok else 'FAIL'} (measure {value:.3e}{note})")
        rows.append(_row(args, media, 0, 0, name, value, dt))
    return rows, (1 if failed else 0)


# ---------------------------------------------------------------------------
# plumbing


class UsageError(Exception):
    pass


def _format_value(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_rows(rows, out_path, fmt):
    if fmt == "csv":
        lines = [CSV_VERSION, CSV_HEADER]
        for r in rows:
            lines.append(",".join(_format_value(r[c]) for c in CSV_HEADER.split(",")))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"format": "hfmm-json v1", "rows": rows},
                          indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _int_list(text):
    return [int(v) for v in str(text).split(",") if v != ""]


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors are usage errors: main prints one line and returns 2."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    """The hfmm parser: each subcommand registers only the flags its handler reads.

    validate takes only --config, --out, --format, --timings and --list;
    accuracy takes --n, --p-ref and a list --p, bench takes --n-list and
    one order --p.
    """
    parser = _Parser(prog="hfmm", description="heterogeneous FMM harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("accuracy", "bench", "validate"):
        # no abbreviations: bench's --n-list must not take --n
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None, help="INI config file")
        if name == "validate":
            # every check sets its own medium and inputs
            p.add_argument("--list", action="store_true")
        else:
            p.add_argument("--media", choices=["free", "two-layer", "three-layer"],
                           default="two-layer")
            p.add_argument("--k", type=float, default=1.0,
                           help="wavenumber of the top layer (k1) in every medium")
            for flag in _MEDIA_FLAGS:  # build_media sets the defaults
                p.add_argument(f"--{flag}", type=float, default=None)
            if name == "accuracy":
                p.add_argument("--p", type=_int_list, default=[5, 10, 20, 30],
                               help="comma-separated expansion orders")
                p.add_argument("--p-ref", type=int, default=39, dest="p_ref")
                p.add_argument("--n", type=int, default=10000)
            else:
                p.add_argument("--p", type=int, default=16, help="expansion order")
                p.add_argument("--n-list", type=_int_list, default=[10000, 90000, 360000],
                               help="comma-separated N sweep")
            p.add_argument("--leaf-size", type=int, default=60, dest="leaf_size")
            p.add_argument("--seed", type=int, default=2026)
            p.add_argument("--tables", default="precompute",
                           help="precompute | cache=PATH (each run of a sweep "
                                "reads and writes PATH.P<p>.N<n>.S<seed>)")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["csv", "json"], default="csv",
                       dest="fmt")
        p.add_argument("--timings", choices=["wall", "none"], default="wall",
                       help="'none' zeroes the seconds column for "
                            "byte-identical artifacts")
    return parser


def _config_flags(path, parser, command):
    """The [hfmm] keys of the INI file as the command's own flags: key = v is --key=v.

    Each flag is parsed alone first, to name the key of a bad value; a
    key the command does not take (config among them) is a usage error,
    so a misspelt key cannot go unnoticed.
    """
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as err:
        raise UsageError(f"config file {path}: {err.message.splitlines()[0]}") from None
    if not read:
        raise UsageError(f"cannot read config file {path}")
    if not cp.has_section("hfmm"):
        raise UsageError("config file needs an [hfmm] section")
    flags, unknown = [], []
    for key, value in cp["hfmm"].items():
        flags.append(f"--{key.replace('_', '-')}={value}")
        try:
            if key == "config" or parser.parse_known_args([command, flags[-1]])[1]:
                unknown.append(key)
        except UsageError as err:
            raise UsageError(f"config key {key}: {err}") from None
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        if args.config:
            # the file's flags go before the command line's, which win
            at = argv.index(args.command) + 1
            args = _parse(parser, argv[:at] + _config_flags(args.config, parser, args.command)
                          + argv[at:])
        handler = {"accuracy": cmd_accuracy, "bench": cmd_bench,
                   "validate": cmd_validate}[args.command]
        rows, code = handler(args)
        if rows:
            write_rows(rows, args.out, args.fmt)
        return code
    except (UsageError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _parse(parser, argv):
    """Parsed arguments; a flag the subcommand does not take is a usage error."""
    args, extra = parser.parse_known_args(argv)
    if extra:
        raise UsageError(f"{args.command} does not take {' '.join(extra)}")
    return args


if __name__ == "__main__":
    sys.exit(main())
