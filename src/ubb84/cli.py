"""Command-line interface.

Subcommands emit CSV with the fixed header
variant,kappa,distance_km,mu,qber_total,q_single,p_lost,chi_s_max,rate_raw,rate
to stdout or to --out.  Exit codes: 0 success, 1 failed validation check,
2 infeasible or invalid input.
"""

import argparse
import itertools
import math
import sys

from .protocol import Variant, make_config

VARIANT_CHOICES = [v.value for v in Variant]
DEFAULT_SEED = 11
# longest accepted scan axis; a longer one is most likely a mistyped step
MAX_GRID_POINTS = 100_000


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    parser.add_argument("--threads", type=int, default=0,
                        help="cap on the worker processes of qubit-scan, distance-scan and "
                             "compare, at most one per job and per usable core; 0 = all "
                             "usable cores (default).  A scan pools only when that saves "
                             "time, and the output is the same at any value.  qubit-rate "
                             "and squash-validate ignore it")


def _add_scan(parser: argparse.ArgumentParser):
    """The scan options of distance-scan and compare, then the common ones."""
    parser.add_argument("--kappa", type=float, required=True)
    parser.add_argument("--preset", metavar="FILE", help="key=value channel preset")
    parser.add_argument("--lmin", type=float, default=0.0)
    parser.add_argument("--lmax", type=float, default=60.0)
    parser.add_argument("--lstep", type=float, default=5.0)
    _add_common(parser)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_cutoffs(points):
    """One stderr line per (variant, kappa) curve: where its rate first fails."""
    from .engine import cutoff_distance

    for (variant, kappa), curve in itertools.groupby(points, key=lambda p: (p.variant, p.kappa)):
        curve = list(curve)
        cutoff = cutoff_distance(curve)
        where = (f"first nonpositive rate at {cutoff:g} km" if cutoff is not None
                 else f"rate positive up to {curve[-1].distance_km:g} km")
        print(f"# cutoff {variant} kappa={kappa:g}: {where}", file=sys.stderr)


def _parse_kappas(raw: str):
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --kappas list {raw!r}") from exc
    if not values:
        raise ValueError("empty --kappas list")
    return values


def _grid(start: float, stop: float, step: float, names: str):
    """start, start + step, ... up to stop, each point computed from its index and
    rounded to 12 significant digits, so that a fine step keeps its points apart."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"{names} must be finite")
    if step <= 0 or stop < start:
        raise ValueError(f"{names}: need step > 0 and stop >= start")
    intervals = (stop - start) / step + 1e-9
    if intervals >= MAX_GRID_POINTS:
        raise ValueError(f"{names} give more than {MAX_GRID_POINTS} grid points")
    return [float(f"{start + i * step:.12g}") for i in range(int(intervals) + 1)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ubb84",
        description="Provably-secure key rates for phase-encoded BB84 with an "
                    "unbalanced interferometer, its PBS variant, and two hardware fixes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qubit-rate", help="single qubit-level key rate")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--qber", type=float, required=True)
    p.add_argument("--variant", choices=VARIANT_CHOICES, default="unbalanced")
    _add_common(p)

    p = sub.add_parser("qubit-scan", help="qubit-level rates over a QBER grid")
    p.add_argument("--kappas", required=True, help="comma-separated kappa list")
    p.add_argument("--qber-start", type=float, default=0.0)
    p.add_argument("--qber-stop", type=float, default=0.12)
    p.add_argument("--qber-step", type=float, default=0.01)
    p.add_argument("--variant", choices=VARIANT_CHOICES, default="unbalanced")
    _add_common(p)

    p = sub.add_parser("distance-scan", help="mu-optimized realistic rates over distance")
    p.add_argument("--variant", choices=VARIANT_CHOICES, required=True)
    _add_scan(p)

    _add_scan(sub.add_parser("compare", help="distance scans of all four variants"))

    p = sub.add_parser("squash-validate", help="Monte-Carlo check of the click post-processing")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="sampling seed (default %(default)s)")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 0:
            raise ValueError(f"--threads must be >= 0, got {args.threads}")
        if args.command in ("qubit-rate", "qubit-scan"):
            from .engine import format_csv, qubit_scan

            if args.command == "qubit-rate":  # a one-point scan, which never pools
                cfgs, qs = [make_config(args.kappa, args.variant)], [args.qber]
            else:
                cfgs = [make_config(k, args.variant) for k in _parse_kappas(args.kappas)]
                qs = _grid(args.qber_start, args.qber_stop, args.qber_step,
                           "--qber-start, --qber-stop and --qber-step")
            _emit(format_csv(qubit_scan(cfgs, qs, threads=args.threads)), args.out)
        elif args.command in ("distance-scan", "compare"):
            from .channel import default_params, load_params
            from .engine import distance_scan, format_csv

            params = load_params(args.preset) if args.preset else default_params()
            distances = _grid(args.lmin, args.lmax, args.lstep, "--lmin, --lmax and --lstep")
            variants = [args.variant] if args.command == "distance-scan" else Variant
            points = distance_scan([make_config(args.kappa, v) for v in variants], params,
                                   distances, threads=args.threads)
            _emit(format_csv(points), args.out)
            _print_cutoffs(points)
        elif args.command == "squash-validate":
            from .squash import monte_carlo_check

            rows, ok = monte_carlo_check(args.trials, args.seed)
            lines = [f"{'pattern':24s} {'outcome':8s} {'expected':>9s} {'observed':>9s} "
                     f"{'3sigma':>9s} status"]
            for name, outcome, expected, observed, bound, within in rows:
                lines.append(f"{name:24s} {outcome.value:8s} {expected:9.6f} {observed:9.6f} "
                             f"{bound:9.6f} {'ok' if within else 'FAIL'}")
            lines.append(f"squash-validate: {'PASS' if ok else 'FAIL'} "
                         f"(trials={args.trials}, seed={args.seed})")
            _emit("\n".join(lines) + "\n", args.out)
            if not ok:
                return 1
    except (ValueError, OSError) as exc:  # attack.InfeasibleError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
