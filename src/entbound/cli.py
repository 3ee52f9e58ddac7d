"""Command-line interface.

Commands: wineland, giovannetti, estimate, simulate, sweep, verify.
Exit codes: 0 success (including "no entanglement certified"), 1 verification
failure, 2 invalid input, 3 I/O failure. The CLI performs no arithmetic of
its own beyond unit conversion; every number comes from the library.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds as bnd
from . import moments as mom
from . import simulator as sim
from .errors import DegenerateCriterionError, EntboundError, SchemaError
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_IO_FAILURE = 3


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _emit(report: dict, fmt: str, output=None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2)
    else:
        lines = []
        for key, value in report.items():
            if isinstance(value, float):
                lines.append(f"{key:24s} {value:.10g}")
            else:
                lines.append(f"{key:24s} {value}")
        text = "\n".join(lines)
    print(text)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise CliError(f"cannot write {output}: {exc}", EXIT_IO_FAILURE)


def _load_moments(path):
    try:
        return mom.load_moments(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO_FAILURE)
    except SchemaError as exc:
        raise CliError(str(exc), EXIT_INVALID_INPUT)


# ---------------------------------------------------------------------------
# commands


def cmd_wineland(args) -> int:
    if args.moments:
        data = _load_moments(args.moments)
        if not isinstance(data, mom.MomentData):
            raise CliError("wineland expects single-ensemble moments", EXIT_INVALID_INPUT)
    else:
        if args.n is None or args.var_jz is None or args.contrast is None:
            raise CliError(
                "provide --moments FILE or all of --n, --var-jz, --contrast",
                EXIT_INVALID_INPUT,
            )
        data = bnd.wineland_moment_data(args.n, args.var_jz, args.contrast)

    try:
        rep = bnd.wineland_bounds(data)
    except DegenerateCriterionError:
        report = {
            "status": "degenerate criterion (<J_x> = 0); no entanglement certified",
            "bsa_bound": 0.0,
            "gr_bound": 0.0,
            "gr_first_order": 0.0,
        }
        _emit(report, args.format, args.output)
        return EXIT_OK
    except EntboundError as exc:
        raise CliError(str(exc), EXIT_INVALID_INPUT)

    report = {
        "n_particles": data.n_particles,
        "xi2": rep.xi2,
        "xi2_db": rep.xi2_db,
        "contrast": rep.contrast,
        "bsa_bound": rep.bsa.value,
        "gr_bound": rep.gr.value,
        "gr_optimal_t": rep.gr.params.t,
        "gr_first_order": rep.gr_first_order,
    }
    if rep.bsa.value == 0.0 and rep.gr.value == 0.0:
        report["status"] = "no entanglement certified"
    _emit(report, args.format, args.output)
    return EXIT_OK


def cmd_giovannetti(args) -> int:
    data = _load_moments(args.moments)
    if not isinstance(data, mom.BipartiteMomentData):
        raise CliError("giovannetti expects bipartite moments", EXIT_INVALID_INPUT)
    try:
        rep = bnd.giovannetti_bounds(data)
    except EntboundError as exc:
        raise CliError(str(exc), EXIT_INVALID_INPUT)
    report = {
        "n_A": data.n_a,
        "n_B": data.n_b,
        "g2_optimized": rep.g2,
        "bsa_bound": rep.bsa.value,
        "bsa_g_z": rep.bsa.gains[0] if rep.bsa.gains else math.nan,
        "bsa_g_y": rep.bsa.gains[1] if rep.bsa.gains else math.nan,
        "gr_bound": rep.gr.value,
        "gr_g_z": rep.gr.gains[0] if rep.gr.gains else math.nan,
        "gr_g_y": rep.gr.gains[1] if rep.gr.gains else math.nan,
        "gr_optimal_t": rep.gr.params.t if rep.gr.params else math.nan,
        "bsa_converged": rep.bsa.diagnostics["converged"],
        "gr_converged": rep.gr.diagnostics["converged"],
    }
    if rep.bsa.value == 0.0 and rep.gr.value == 0.0:
        report["status"] = "no entanglement certified"
    _emit(report, args.format, args.output)
    return EXIT_OK


def cmd_estimate(args) -> int:
    try:
        shots = mom.load_shots(args.shots)
    except OSError as exc:
        raise CliError(f"cannot read {args.shots}: {exc}", EXIT_IO_FAILURE)
    except SchemaError as exc:
        raise CliError(str(exc), EXIT_INVALID_INPUT)
    regions = {s.region for s in shots}
    try:
        if regions <= {"ALL"}:
            data = mom.estimate_moments(shots)
        else:
            data = mom.estimate_bipartite_moments(shots)
    except EntboundError as exc:
        raise CliError(str(exc), EXIT_INVALID_INPUT)
    try:
        mom.save_moments(data, args.output)
    except OSError as exc:
        raise CliError(f"cannot write {args.output}: {exc}", EXIT_IO_FAILURE)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.n < 1:
        raise CliError("--n must be a positive integer", EXIT_INVALID_INPUT)
    state = sim.oat_evolve(sim.css_x(args.n), args.mu)
    if args.rotate:
        state = sim.rotate_x(state, sim.optimal_squeezing_rotation(state))
    settings = tuple(args.settings.split(","))
    for axis in settings:
        if axis not in ("x", "y", "z"):
            raise CliError(f"bad axis {axis!r} in --settings", EXIT_INVALID_INPUT)

    if args.split is not None:
        if not 0.0 < args.split < 1.0:
            raise CliError("--split must lie in (0,1)", EXIT_INVALID_INPUT)
        data = sim.split_state_moments(state, sim.SplitConfig(args.split))
        shots = sim.sample_shots(
            data, settings, args.shots, args.seed, args.detection_sigma
        )
    else:
        data = sim.exact_moments(state)
        shots = sim.sample_shots(
            state, settings, args.shots, args.seed, args.detection_sigma
        )

    shots_path = f"{args.output}.shots.csv"
    moments_path = f"{args.output}.moments.json"
    try:
        mom.save_shots(shots, shots_path)
        mom.save_moments(data, moments_path)
    except OSError as exc:
        raise CliError(f"cannot write outputs: {exc}", EXIT_IO_FAILURE)
    print(f"wrote {shots_path}")
    print(f"wrote {moments_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        n_values = [int(v) for v in args.n_values.split(",")]
        lo, hi, count = (float(v) for v in args.xi2_db.split(":"))
    except ValueError as exc:
        raise CliError(f"bad sweep grid: {exc}", EXIT_INVALID_INPUT)
    count = int(count)
    if count < 1 or any(n < 1 for n in n_values):
        raise CliError("sweep grid must be nonempty and positive", EXIT_INVALID_INPUT)
    step = (hi - lo) / (count - 1) if count > 1 else 0.0
    lines = ["N,xi2_db,bsa_bound,gr_bound"]
    for n in n_values:
        for k in range(count):
            db = lo + k * step
            data = bnd.wineland_moment_data_from_xi2(n, 10 ** (db / 10), args.contrast)
            rep = bnd.wineland_bounds(data)
            lines.append(f"{n},{db:.10g},{rep.bsa.value:.15g},{rep.gr.value:.15g}")
    text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc}", EXIT_IO_FAILURE)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks()
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        detail = f": {r.detail}" if r.detail else ""
        print(f"{status} {r.name}{detail}")
    if failed:
        print(f"verification failed: {failed[0].name}")
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entbound",
        description=(
            "Certified lower bounds on entanglement measures (best separable "
            "approximation, generalized robustness) from collective-spin moments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="also write the JSON report to this path")

    p = sub.add_parser("wineland", help="bounds from the spin-squeezing parameter")
    p.add_argument("--n", type=float, help="mean total atom number")
    p.add_argument("--var-jz", type=float, dest="var_jz", help="variance of J_z")
    p.add_argument(
        "--contrast", type=float,
        help="Rabi contrast C = <J_x>/(N/2); xi^2 = N Var(J_z)/<J_x>^2, dB = 10 log10",
    )
    p.add_argument("--moments", help="single-ensemble moments JSON instead of flags")
    common(p)
    p.set_defaults(func=cmd_wineland)

    p = sub.add_parser("giovannetti", help="two-ensemble bounds with gain optimization")
    p.add_argument("--moments", required=True, help="bipartite moments JSON")
    common(p)
    p.set_defaults(func=cmd_giovannetti)

    p = sub.add_parser("estimate", help="moments JSON from a shots CSV")
    p.add_argument("--shots", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="synthetic shots and exact moments")
    p.add_argument("--n", type=int, required=True, help="particle number")
    p.add_argument("--mu", type=float, default=0.0, help="one-axis twisting angle")
    p.add_argument("--rotate", action="store_true",
                   help="rotate the squeezed quadrature onto z before sampling")
    p.add_argument("--split", type=float, default=None,
                   help="binomial split probability; emits bipartite data")
    p.add_argument("--shots", type=int, default=1000, help="shots per setting")
    p.add_argument("--settings", default="x,y,z", help="comma list of axes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detection-sigma", type=float, default=0.0, dest="detection_sigma")
    p.add_argument("--output", required=True, help="output path prefix")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="bound curves over a squeezing grid")
    p.add_argument("--n-values", required=True, dest="n_values", help="e.g. 100,476,1000")
    p.add_argument("--xi2-db", required=True, dest="xi2_db",
                   help="grid LO:HI:COUNT in dB, e.g. --xi2-db=-12:0:25")
    p.add_argument("--contrast", type=float, default=0.98)
    p.add_argument("--output", help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the built-in ground-truth checks")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except EntboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE


if __name__ == "__main__":
    sys.exit(main())
