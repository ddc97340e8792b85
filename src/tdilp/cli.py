"""Command-line surface.

Every command is deterministic given identical inputs and flags, and the
exit code is scriptable: 0 success, 1 negative verdict (infeasible
instance, failed witness, "false" oracle answer), 2 usage or input
error, 3 resource cap hit (a user-shrunk search box came up empty or its
maximum is beaten outside it, oracle budget), 4 internal fault (a failed
self-check, any other unexpected exception, or stdout refusing an outcome).

The solve command's handler is here, with a strict reader of its plain
spelling.  The grammar of every command (argparse) and the other handlers
are in ``commands``, which loads only when another command runs or a solve
is spelled any other way: each ``tdilp solve`` is a fresh process that
compiles what it imports.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

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
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_instance(path: str) -> IlpInstance:
    return parse_instance(_read(path))


def _load_witness(path: str | None):
    return None if path is None else witness_from_json(_read(path))


def _write_outcome(outcome: SolveOutcome, name_of) -> int:
    """Print the outcome and return its exit code.  If stdout refuses it (no input
    error), stdout goes to the null device, so the flush at exit cannot fail."""
    text = outcome.to_json(name_of=name_of)
    try:
        print(text, flush=True)
    except OSError as exc:
        print(f"error: cannot write the outcome: {exc}", file=sys.stderr)
        import os  # only a failed write loads it
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return INTERNAL
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
    return _write_outcome(outcome, instance.name_of)


# ---------------------------------------------------------------------------
# the plain spelling of a solve


def _solve_args(argv: list[str]) -> SimpleNamespace | None:
    """``solve FILE [--td W] [--bound N] [--propagate]`` read without
    argparse, or None.  It accepts only argv that the full grammar
    (``commands.build_parser``) reads the same way: each option at most
    once, the value of --td and --bound in the next argument and not
    starting with "-", a --bound that is a positive instance-file integer,
    and one non-empty FILE that does not start with "-".  It never prints;
    help, usage errors, --td=W, abbreviations and -- are left to the full
    grammar."""
    if argv[:1] != ["solve"]:
        return None
    args = {"command": "solve", "file": None, "td": None, "bound": None, "propagate": False}
    rest = iter(argv[1:])
    for arg in rest:
        if arg == "--propagate" and not args["propagate"]:
            args["propagate"] = True
        elif arg in ("--td", "--bound") and args[arg[2:]] is None:
            value = next(rest, "-")
            if value.startswith("-"):
                return None
            if arg == "--bound":
                if not INT_RE.fullmatch(value) or int(value) < 1:
                    return None
                value = int(value)
            args[arg[2:]] = value
        elif arg and not arg.startswith("-") and args["file"] is None:
            args["file"] = arg
        else:
            return None
    return None if args["file"] is None else SimpleNamespace(**args)


def run(argv: list[str] | None = None) -> int:
    # certified radii and the coordinates they bound can run past the 4,300
    # digits that int <-> str conversion allows by default; the caller's
    # limit comes back on return
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else argv
    try:
        # commands (and argparse) is imported only past this test, so that a
        # plainly spelled solve never compiles it
        args = _solve_args(argv)
        if args is not None:
            return _cmd_solve(args)
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
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    code = run(sys.argv[1:])
    # the process ends here: frozen, what is still alive (site's and tdilp's
    # modules, any cycles the solve left) is left to reference counting and
    # the OS, not walked by teardown's last collections; atexit handlers and
    # the exit-time flushes still run.  run() never freezes: tests and
    # library callers call it in-process.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    # run as `python -m tdilp.cli`, this module is __main__; register it under
    # its own name too, so that commands.py imports this copy, not a second
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    main()
