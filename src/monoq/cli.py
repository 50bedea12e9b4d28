"""Command-line front end: single-state evaluation, figure data, fuzzing.

Exit codes: 0 on success (and fuzz runs with no violation beyond tolerance),
1 when a fuzz run found violations or a non-finite margin, 2 on configuration
or input errors (including a negative seed or a non-finite alpha, mu or
tolerance), 3 when the program itself fails (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from contextlib import contextmanager

from .core import load_state
from .errors import IoError, MonoqError, ParameterError, PreconditionError
from .harness import (
    _SETTINGS,
    MODES,
    REFERENCE_ALPHA,
    STATE_CLASSES,
    build_config,
    falpha_table,
    figure_rows,
    parse_config_file,
    parse_grid,
    run_campaign,
    write_csv,
)
from .measures import AlphaMu
from .monogamy import BOUNDS, detect_ordering, ladder_report


@contextmanager
def _output(path):
    """Text stream writing to ``path``, or to stdout for None or '-'."""
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        stream = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    with stream:
        yield stream


def cmd_eval(args) -> int:
    psi = load_state(args.state)
    focus = psi.labels[0] if args.focus is None else args.focus
    if focus not in psi.labels:
        raise ParameterError(f"focus {focus!r} not among labels {psi.labels!r}")
    if focus != psi.labels[0]:
        psi = psi.permuted((focus,) + tuple(l for l in psi.labels if l != focus))
    mode = args.mode
    if mode == "auto":
        if args.mu >= 2:
            mode = "monogamy"
        elif args.mu <= 1:
            mode = "polygamy"
        else:
            raise ParameterError(
                f"mu={args.mu} selects no bound (monogamy needs mu >= 2, polygamy mu <= 1); "
                "pass --mode explicitly"
            )
    profile = detect_ordering(psi)
    out = {
        "state_file": args.state,
        "mode": mode,
        "alpha": args.alpha,
        "mu": args.mu,
        "profile": profile.to_dict(),
    }
    try:
        out["report"] = ladder_report(psi, profile, AlphaMu(args.alpha, args.mu), mode).to_dict()
    except PreconditionError as exc:
        out["report"] = None
        out["skipped"] = str(exc)
    with _output(args.out) as stream:
        stream.write(json.dumps(out, indent=2, sort_keys=False) + "\n")
    return 0


def cmd_reproduce(args) -> int:
    header, rows = figure_rows(args.figure, alpha=args.alpha)
    with _output(args.out) as stream:
        write_csv(header, rows, stream)
    return 0


def cmd_fuzz(args) -> int:
    settings = parse_config_file(args.config) if args.config else {}
    settings.update((key, value) for key, value in vars(args).items() if value is not None)
    settings.setdefault("seed", os.environ.get("MONOQ_SEED"))
    config = build_config(settings)
    result = run_campaign(config)
    if args.out:
        with _output(args.out) as stream:
            result.write_records_csv(stream)
    print(json.dumps(result.summary(), indent=2, sort_keys=False))
    return 1 if result.n_violations else 0


def cmd_falpha(args) -> int:
    header, rows = falpha_table(parse_grid(args.alpha), args.points)
    with _output(args.out) as stream:
        write_csv(header, rows, stream)
    return 0


# Help texts of the ``fuzz`` flags, one flag per key of ``harness._SETTINGS``
# (the config file's keys).  Each flag takes text, which ``build_config``
# parses by its key's parser.
_FUZZ_HELP = {
    "mode": f"one of {', '.join(MODES)}",
    "alpha": "comma-separated alpha grid",
    "mu": "comma-separated mu (or power) grid",
    "seed": "defaults to MONOQ_SEED",
    "class": f"one of {', '.join(STATE_CLASSES)}",
    "state": "state file for class=file",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves the parser unchanged (every call gets a fresh namespace
    and its own defaults), so later ``main`` calls reuse it.
    """
    parser = argparse.ArgumentParser(
        prog="monoq",
        description="Evaluate and stress-test weighted entanglement monogamy/polygamy bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the applicable bound on one state file")
    p_eval.add_argument("state", help="state JSON file")
    p_eval.add_argument("--alpha", type=float, default=REFERENCE_ALPHA)
    p_eval.add_argument("--mu", type=float, default=2.0)
    p_eval.add_argument("--focus", default=None, help="focus qubit label (default: the file's first)")
    p_eval.add_argument("--mode", choices=("auto", *(m for m, b in BOUNDS.items() if b.ordered_by)), default="auto")
    p_eval.add_argument("--out", default=None, help="output path (default stdout)")
    p_eval.set_defaults(func=cmd_eval)

    p_rep = sub.add_parser("reproduce", help="write recomputed bound-curve data as CSV")
    p_rep.add_argument("figure", choices=("fig1", "fig2"))
    p_rep.add_argument("--alpha", type=float, default=REFERENCE_ALPHA)
    p_rep.add_argument("--out", default=None, help="output path (default stdout)")
    p_rep.set_defaults(func=cmd_reproduce)

    p_fuzz = sub.add_parser("fuzz", help="stochastic falsification campaign")
    p_fuzz.add_argument("--config", default=None, help="key=value campaign file")
    for key in _SETTINGS:
        p_fuzz.add_argument(f"--{key}", default=None, help=_FUZZ_HELP.get(key))
    p_fuzz.add_argument("--out", default=None, help="witness CSV path")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_fa = sub.add_parser("falpha", help="tabulate the spectral bound function")
    p_fa.add_argument("--alpha", default=str(REFERENCE_ALPHA), help="comma-separated orders")
    p_fa.add_argument("--points", type=int, default=101)
    p_fa.add_argument("--out", default=None, help="output path (default stdout)")
    p_fa.set_defaults(func=cmd_falpha)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MonoqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
