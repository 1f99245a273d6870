"""Command-line entry point.

Subcommands cover the full workflow: fit-initial, sample-gram,
gen-trajectories, train-control, solve, reference, eval, export-slice, and
verify. Exit codes: 0 ok, 2 config error, 3 missing artifact, 4 numeric
failure, 5 verify found a blown-up solve or a non-finite number.
"""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import load_config
from .errors import CacheMismatch, ConfigError, MissingArtifact, NonFiniteError, PdeControlError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the run-config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--set", dest="overrides", action="append", default=[], metavar="K=V",
                   help="dotted-path config override, repeatable")
    p.add_argument("--out", default=None, help="output directory (default: config paths.out_dir or ./out)")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is less than {low}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in its message for a non-integer
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pdecontrol", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("fit-initial", "fit anchor parameters for the problem kind's initial family"),
        ("sample-gram", "assemble the Gram/projection cache over the parameter space"),
        ("gen-trajectories", "generate Gram-march trajectories for the trajectory loss"),
        ("train-control", "train the control field on the caches through the stages of train.schedule"),
        ("solve", "integrate the parameter ODE from a fitted anchor"),
        ("reference", "materialize the reference solution (Allen-Cahn IMEX)"),
        ("eval", "error curve of a stored solution against the reference"),
        ("export-slice", "pointwise 2-D comparison slice at a time"),
        ("verify", "report on the run's cache, solutions and error curves in report.json"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "train-control":
            p.add_argument("--resume", action="store_true",
                           help="warm-start from the existing checkpoint and append to the loss history")
        if name in ("solve", "reference", "eval", "export-slice"):
            p.add_argument("--anchor", type=int, default=0, help="anchor index in the store")
        if name == "reference":
            # the IMEX solver needs at least 16 grid cells and 16 steps
            p.add_argument("--nx", type=_int_at_least(16), default=pipeline.REFERENCE_NX)
            p.add_argument("--nt", type=_int_at_least(16), default=pipeline.REFERENCE_NT)
        if name == "eval":
            p.add_argument("--n-x", type=_int_at_least(1), default=pipeline.EVAL_N_X)
        if name == "export-slice":
            p.add_argument("--time", type=float, required=True)
    return ap


def _run(args) -> int:
    cfg = load_config(args.config, overrides=args.overrides, out_dir=args.out, seed=args.seed)

    if args.command == "fit-initial":
        report = pipeline.cmd_fit_initial(cfg)
        for k, entry in enumerate(report):
            print(f"anchor {k:3d}: rmse={entry['rmse']:.3e} |theta|={entry['theta_norm']:.3f}")
        print(f"wrote {len(report)} anchors to {cfg.path('anchors')}")
    elif args.command == "sample-gram":
        stats = pipeline.cmd_sample_gram(cfg)
        print(
            f"gram cache: {stats['total']} records ({stats['resumed']} resumed, "
            f"{stats['computed']} computed, {stats['skipped']} skipped) -> {cfg.path('gram_cache')}"
        )
    elif args.command == "gen-trajectories":
        stats = pipeline.cmd_gen_trajectories(cfg)
        print(f"trajectories: {stats['trajectories']} ({stats['pairs']} pairs, {stats['blowups']} blowups)")
    elif args.command == "train-control":
        stats = pipeline.cmd_train_control(cfg, resume=args.resume)
        for k, stage in enumerate(stats["stages"]):
            print(f"stage {k}: lr={stage['lr']:g}, {stage['steps']} steps, final l_total={stage['final_loss']:.6e}")
        print(f"trained {stats['steps']} steps on {stats['records']} records "
              f"(+{stats['pairs']} pairs); final l_total={stats['final_loss']:.6e}")
    elif args.command == "solve":
        stats = pipeline.cmd_solve(cfg, anchor_index=args.anchor)
        msg = f"solution -> {stats['path']} ({stats['steps']} steps)"
        if stats["blowup_step"] is not None:
            msg += f"; ABORTED at step {stats['blowup_step']} (blow-up guard)"
        if stats["escape_step"] is not None:
            msg += f"; left the training region at step {stats['escape_step']}"
        print(msg)
    elif args.command == "reference":
        stats = pipeline.cmd_reference(cfg, anchor_index=args.anchor, nx=args.nx, nt=args.nt)
        print(stats.get("note") or f"reference -> {stats['path']} ({stats['snapshots']} snapshots)")
    elif args.command == "eval":
        stats = pipeline.cmd_eval(cfg, anchor_index=args.anchor, n_x=args.n_x)
        rel = stats["rel_err_max"]
        rel_s = "undefined" if rel is None else f"{rel:.4f}"
        print(f"errors -> {stats['path']}; max abs {stats['abs_err_max']:.3e}, max rel {rel_s}")
    elif args.command == "export-slice":
        stats = pipeline.cmd_export_slice(cfg, anchor_index=args.anchor, t=args.time)
        print(f"slice -> {stats['path']} (t={stats['time']:.4f})")
    elif args.command == "verify":
        report = pipeline.cmd_verify(cfg)
        res = report["cache"]["residual"]
        print(f"gram cache: {report['cache']['records']} records; |G V - p| p50 {res['p50']:.3e}, "
              f"p90 {res['p90']:.3e}, max {res['max']:.3e}")
        for a in report["anchors"]:
            msg = f"anchor {a['anchor']:3d}: M_V={a['m_v']:.3e} L_V={a['l_v']:.3e} euler bound {a['euler_bound']:.3e}"
            if "abs_err_max" in a:
                msg += f"; max abs err {a['abs_err_max']:.3e}"
            if a["blowup_step"] is not None:
                msg += f"; BLEW UP at step {a['blowup_step']}"
            if a["escape_step"] is not None:
                msg += f"; left the training region at step {a['escape_step']}"
            print(msg)
        totals = report["totals"]
        print(f"{'PASS' if totals['passed'] else 'FAIL'}: {totals['blowups']} blow-ups, "
              f"{totals['escapes']} escapes; report -> {report['path']}")
        if not totals["passed"]:
            return EXIT_VERIFY
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (NonFiniteError, CacheMismatch) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PdeControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
