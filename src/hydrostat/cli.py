"""Command-line surface: ``hydrostat run|validate|report``.

Exit codes: 0 when every acceptance check passes, 1 when any verdict
fails, 2 on configuration errors and on run directories ``report`` cannot
read, whose files do not match their sha256 digests in the manifest, or
whose manifest names a file that is not a bare file name.  A ``run``
that fails after its config is accepted exits 1 with "run failed: ..."
on stderr: a package error such as a blow-up or an unreadable snapshot,
or a file-system fault such as an output directory that is a file.
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config, with_overrides
from .errors import ConfigError, HydrostatError
from .experiments import load_manifest, reconstruct_verdicts, run_experiment

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2


def _print_verdicts(verdicts):
    for name in sorted(verdicts):
        print(f"{'PASS' if verdicts[name] else 'FAIL'} {name}")


def _cmd_run(args):
    config = args.config_flag or args.config_positional
    if not config:
        print("config error: no configuration file given", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = with_overrides(config, out=args.out, seed=args.seed,
                             threads=args.threads)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report, manifest = run_experiment(cfg)
    except (HydrostatError, OSError) as err:
        print(f"run failed: {err}", file=sys.stderr)
        return EXIT_FAILED
    print(f"experiment: {cfg.experiment}")
    print(f"run directory: {cfg.directory}")
    print(f"config hash: {cfg.config_hash}")
    _print_verdicts(report.verdicts)
    return EXIT_OK if report.all_pass else EXIT_FAILED


def _cmd_validate(args):
    try:
        cfg = parse_config(path=args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    tail = "" if cfg.planned_steps is None else f" steps={cfg.planned_steps}"
    print(f"ok: experiment={cfg.experiment} hash={cfg.config_hash}{tail}")
    return EXIT_OK


def _cmd_report(args):
    try:
        manifest = load_manifest(args.run_dir)
        verdicts = reconstruct_verdicts(manifest, args.run_dir)
    except (HydrostatError, OSError, LookupError, TypeError, ValueError) as err:
        print(f"report error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"experiment: {manifest['experiment']}")
    print(f"config hash: {manifest['config_hash']}")
    _print_verdicts(verdicts)
    stored = manifest.get("verdicts", {})
    mismatches = {k for k in verdicts if stored.get(k) != verdicts[k]}
    for name in sorted(mismatches):
        print(f"NOTE verdict {name} differs from the stored manifest")
    return EXIT_OK if all(verdicts.values()) else EXIT_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hydrostat",
        description="Desk-scale experiments for the hydrostatic layer solver")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment named in a config file")
    run.add_argument("config_positional", nargs="?", metavar="config",
                     help="path to the run configuration")
    run.add_argument("--config", dest="config_flag",
                     help="alternative way to pass the config path")
    run.add_argument("--out", help="override the output directory")
    run.add_argument("--seed", type=int, help="override the RNG seed")
    run.add_argument("--threads", type=int,
                     help="worker threads (fallback: HYDROSTAT_THREADS)")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="check a config file without running")
    val.add_argument("config")
    val.set_defaults(func=_cmd_validate)

    rep = sub.add_parser("report", help="rebuild verdicts from a run directory")
    rep.add_argument("run_dir")
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
