"""Command-line surface.

Every command is deterministic given identical inputs and flags, and the
exit code is scriptable: 0 success, 1 negative verdict (infeasible
instance, failed witness, "false" oracle answer), 2 usage or input
error, 3 resource cap hit (a user-shrunk search box came up empty or its
maximum is beaten outside it, oracle budget), 4 internal fault (a failed
self-check or any other unexpected exception).

The solve command's handler and grammar are here.  The grammar of every
command and the other handlers are in ``commands``, which loads only when
another command runs: each ``tdilp solve`` is a fresh process that
compiles what it imports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .instance import INT_RE, IlpError, IlpInstance, parse_instance
from .outcome import BOUND_EXHAUSTED, BOX_OPTIMAL, INFEASIBLE, SolveOutcome
from .solver import solve_pipeline
from .structure import witness_from_json

OK = 0
NO = 1
USAGE = 2
RESOURCE = 3
INTERNAL = 4


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_instance(path: str) -> IlpInstance:
    return parse_instance(_read(path))


def _load_witness(path: str | None):
    return None if path is None else witness_from_json(_read(path))


def _outcome_exit(outcome: SolveOutcome) -> int:
    if outcome.status == INFEASIBLE:
        return NO
    if outcome.status in (BOUND_EXHAUSTED, BOX_OPTIMAL):
        return RESOURCE
    return OK


# ---------------------------------------------------------------------------
# the solve command


def _cmd_solve(args) -> int:
    instance = _load_instance(args.file)
    witness = _load_witness(args.td)
    outcome, _ = solve_pipeline(instance, witness, propagate=args.propagate, bound=args.bound)
    print(outcome.to_json(name_of=instance.name_of))
    return _outcome_exit(outcome)


# ---------------------------------------------------------------------------
# argument grammar


def _int(text: str) -> int:
    # the grammar of an instance file's right-hand side
    if not INT_RE.fullmatch(text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _positive(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _command_parser(**subparsers) -> tuple:
    """The top-level parser and its subcommand action."""
    parser = argparse.ArgumentParser(
        prog="tdilp",
        description="Structure-aware exact ILP toolkit: kernelize, solve, generate.",
    )
    return parser, parser.add_subparsers(dest="command", required=True, **subparsers)


def _add_solve_parser(sub) -> None:
    p = sub.add_parser("solve", help="kernelize, search, lift; prints outcome JSON")
    p.add_argument("file")
    p.add_argument("--td", help="treedepth witness JSON to use instead of computing one")
    p.add_argument("--bound", type=_positive, help="override the certified search box radius")
    p.add_argument("--propagate", action="store_true", help="presolve rewrites + domain-driven branching")


def _solve_parser() -> argparse.ArgumentParser:
    """The grammar of `tdilp solve` alone; commands.build_parser has every
    command's.  Building all of them took about 3 ms of a cold solve.  The
    metavar lists every command, so that a usage error prints the usage line
    of the full grammar."""
    parser, sub = _command_parser(
        metavar="{analyze,solve,kernelize,lift,generate,verify,oracle,bounds}"
    )
    _add_solve_parser(sub)
    return parser


def run(argv: list[str] | None = None) -> int:
    # certified radii and the coordinates they bound can run past the 4,300
    # digits that int <-> str conversion allows by default
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else argv
    try:
        # the top-level parser takes no option but -h, so a solve's first
        # argument is "solve"; commands is imported only past this test, so
        # that a solve never compiles it
        if argv[:1] == ["solve"]:
            return _cmd_solve(_solve_parser().parse_args(argv))
        from .commands import HANDLERS, build_parser

        args = build_parser().parse_args(argv)
        return HANDLERS[args.command](args)
    except SystemExit as exc:
        # argparse already printed usage or help
        return int(exc.code or 0)
    except (IlpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # not BaseException: signals and exits pass through
        import traceback  # only a crash pays for this import

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    # run as `python -m tdilp.cli`, this module is __main__; register it under
    # its own name too, so that commands.py imports this copy, not a second
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    main()
