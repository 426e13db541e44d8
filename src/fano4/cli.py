"""Command-line interface.

Subcommands:

* ``list``    -- the 28 family labels with their (z_id, a, d);
* ``info``    -- full record for one family (the row the exports write),
                 cones and pairings included (exit 2 on a malformed or
                 inadmissible triple, as ``cones``); it runs the checks
                 of the 28-family pass once, before it prints a line;
* ``verify``  -- check the base 3-folds and records against the reference
                 tables (exit 0 all pass, 1 any mismatch, 2 internal error);
* ``export``  -- write all records as json, csv or markdown;
* ``cones``   -- curve/nef cone generators and pairings for one family.

Every command exits 2 with one line on stderr on any exception, such as
output that cannot be written or a standard output closed at start: exit 1
means a mismatch only.  An unwritable stderr loses that line, not the code.

The ``fano4`` command and ``python -m fano4.cli`` exit through :func:`run`,
which ends the process as soon as the output is flushed; :func:`main` returns
the exit code, for tests and in-process callers.

All numeric output is exact; non-integral rationals (which only the pairing
displays could ever produce) are rendered as p/q.

Each command imports only the modules it needs, so a cold start pays for no
more: ``list`` loads ``catalog`` and ``errors``; ``cones`` adds ``cones``;
``info`` and ``export`` load everything except ``golden`` (the reference
tables); ``verify`` loads everything except ``json`` and ``csv``.  Every
record type is a ``typing.NamedTuple``, and this module imports ``typing``
anyway, so no command loads ``dataclasses`` or, through it, ``inspect``; the
records hold only ``int`` values, so none loads ``fractions`` either.

``argparse`` (which loads ``gettext`` and ``locale``) is the one definition of
the grammar, but a plain command never imports it: :func:`main` first tries
``_recognise``, which accepts only the documented spellings of each command
and returns the namespace argparse would.  Anything else -- ``--help``,
``--version``, a usage error, an abbreviated option or ``--opt=value`` -- goes
to :func:`build_parser`, so argparse writes every help text and usage error.
One table, ``_COMMANDS``, names each command with its handler, the kind of
its arguments and its help text; both parsers and :func:`main`'s dispatch
read it.
"""

from __future__ import annotations

import atexit
import errno
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

from . import __version__
from .catalog import FamilyParams, catalog, enumerate_families
from .errors import ConsistencyError, IntegrityError

if TYPE_CHECKING:
    import argparse

    from . import cones

__all__ = ["main", "run"]


def _family_arg(args: argparse.Namespace) -> FamilyParams:
    # exit 2, not 1: exit 1 means a verify mismatch
    try:
        params = FamilyParams(args.i, args.a, args.d)
        if params.is_admissible:
            return params
        message = (f"(z_id={args.i}, a={args.a}, d={args.d}) is not an "
                   f"admissible family; run 'list' for the 28 admissible "
                   f"triples")
    except ValueError as exc:
        message = str(exc)
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _cmd_list(args: argparse.Namespace) -> int:
    for p in enumerate_families():
        print(f"{p.label}  (z_id={p.z_id}, a={p.a}, d={p.d})")
    return 0


def _print_cones(cone: cones.ConeData) -> None:
    from . import cones

    print("NE(X) generators and -K degrees:")
    for C, degree in zip(cone.generators, cone.degrees):
        print(f"  {C.kind.value:7s}  -K . C = {degree}")
    print("nef cone rays:")
    for ray in cone.rays:
        face = ", ".join(sorted(g.value for g in ray.vanishing_face)) or "-"
        coords = ", ".join(map(str, ray.generator.coords))
        print(f"  {ray.label.value}: {ray.name}  = ({coords}) over "
              f"(phi*H, Ghat, E); face {{{face}}}; {ray.contraction}")
    print("pairing matrix (rows phi*H, Ghat, E; columns F, Fhat, C_G, C_Ghat):")
    matrix = cones.pairing_matrix(cone.antiK.context)
    for row_name, idx in (("phi*H", 0), ("Ghat", 1), ("E", 2)):
        row = "  ".join(f"{matrix[g][idx]:4d}" for g in cones.CurveGen)
        print(f"  {row_name:6s} {row}")


def _cmd_info(args: argparse.Namespace) -> int:
    params = _family_arg(args)
    from . import cones, report

    cone = cones.cone_data(params)
    record, = report.build_records([params])
    Z = params.threefold
    print(f"{record.label}: family over {Z.label} ({Z.description}), "
          f"a={params.a}, d={params.d}")
    print(f"  base 3-fold: index {Z.index}, degree {Z.degree}, "
          f"h^{{1,2}} = {Z.h12}")
    print(f"  K^4 = {record.K4}, K^2.c2 = {record.K2c2}, "
          f"h^0(-K) = {record.h0_antiK}")
    print(f"  h^{{1,2}} = {record.h12}, h^{{1,3}} = {record.h13}, "
          f"h^{{2,2}} = {record.h22}")
    locus = report._BASE_LOCUS_TEXT[record.base_locus]
    print(f"  base locus of |-K|: {locus} (general member smooth)")
    rat = record.rationality.replace("_", " ")
    if record.toric_label is not None:
        rat += f" ({record.toric_label})"
    print(f"  rationality: {rat}")
    print(f"  fibre-like: {record.fibre_like.replace('_', ' ')}")
    h0, h1 = (("= " if exact else "<= ") + str(value) for value, exact in
              ((record.h0_T, record.h0_T_is_exact), (record.h1_T, record.h1_T_is_exact)))
    print(f"  tangent sheaf: chi(T) = {record.chi_T}, h^0(T) {h0}, h^1(T) {h1}")
    _print_cones(cone)
    return 0


def _cmd_cones(args: argparse.Namespace) -> int:
    params = _family_arg(args)
    from . import cones

    print(f"{params.label}:")
    _print_cones(cones.cone_data(params))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import report

    result = report.verify_all()
    if not args.quiet:
        for m in result.mismatches:
            print(f"MISMATCH {m.family} {m.field}: expected {m.expected}, "
                  f"computed {m.computed}")
        summary = (f"{result.pass_count}/{result.pass_count + result.fail_count}"
                   f" families match the reference tables")
        if failed := result.threefold_fail_count:
            n = len(catalog())
            summary += f"; {n - failed}/{n} base 3-folds match table 1"
        print(summary)
    return 0 if result.ok else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from . import report

    payload = report.export(report.build_all_records(), args.format)
    if args.out is None:
        sys.stdout.buffer.write(payload)
    else:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:  # a failed write names no file
            exc.filename = args.out
            raise
        if not args.quiet:
            print(f"wrote {len(payload)} bytes to {args.out}")
    return 0


#: the formats of ``export --format``
_FORMATS = ("json", "csv", "markdown")

#: every command, in ``--help`` order: its handler, the kind of its arguments
#: (none, the "family" triple i a d, or the "export" options) and its help
_COMMANDS = {
    "list": (_cmd_list, None, "print the 28 family labels"),
    "info": (_cmd_info, "family", "full record for one family"),
    "verify": (_cmd_verify, None,
               "check 3-folds and records against the reference tables"),
    "export": (_cmd_export, "export", "write all records"),
    "cones": (_cmd_cones, "family", "curve/nef cone data for one family"),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        def _print_message(self, message: str, file=None) -> None:
            if file is not sys.stdout:
                return super()._print_message(message, file)
            # argparse would drop a failed write of --help or --version text;
            # main reports it, and it may fail at the flush only
            file.write(message)
            file.flush()

    parser = _Parser(
        prog="fano4",
        description="Invariants of the 28 families of smooth Fano 4-folds of "
                    "Picard number 3 with a prime divisor of Picard rank 1.")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, kind, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        if kind == "family":
            cmd.add_argument("i", type=int, help="base 3-fold id (1..7)")
            cmd.add_argument("a", type=int, help="bundle twist a >= 0")
            cmd.add_argument("d", type=int,
                             help="degree d >= 1 of the blown-up surface")
        elif kind == "export":
            cmd.add_argument("--format", choices=_FORMATS, required=True)
            cmd.add_argument("--out", default=None, metavar="PATH",
                             help="output file (default: standard output)")
    return parser


def _recognise(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for the spellings
    that the README documents; ``None`` for anything else.

    Those are an optional leading ``--quiet``, then ``list`` or ``verify``
    alone, ``info`` or ``cones`` with three ASCII-digit tokens, or ``export``
    with ``--format F`` and at most one ``--out P`` (P not starting with
    ``-``), in either order.
    """
    quiet = argv[:1] == ["--quiet"]
    command, *rest = argv[quiet:] or [None]
    if command not in _COMMANDS:
        return None
    kind = _COMMANDS[command][1]
    args = SimpleNamespace(quiet=quiet, command=command)
    if kind == "family":
        if len(rest) != 3 or not all(t.isascii() and t.isdigit() for t in rest):
            return None
        try:
            args.i, args.a, args.d = map(int, rest)
        except ValueError:   # too many digits: argparse words the error
            return None
    elif kind == "export":
        options = dict(zip(rest[::2], rest[1::2]))
        if (2 * len(options) != len(rest)
                or not options.keys() <= {"--format", "--out"}
                or options.get("--format") not in _FORMATS
                or options.get("--out", "").startswith("-")):
            return None
        args.format, args.out = options["--format"], options.get("--out")
    elif rest:
        return None
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        if sys.stdout is None:   # closed at start: print would drop the output
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _recognise(argv) or build_parser().parse_args(argv)
        code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except (ConsistencyError, IntegrityError) as exc:
        message = f"internal consistency error: {exc}"
    except OSError as exc:
        name = "standard output" if exc.filename is None else exc.filename
        message = (f"error: cannot write {name or repr(name)}: "
                   f"{exc.strerror or exc}")
    except Exception as exc:
        message = f"internal error: {type(exc).__name__}: {exc}"
    try:
        print(message, file=sys.stderr)
    except OSError:   # stderr is unwritable too: the exit code still says 2
        pass
    return 2


def run() -> NoReturn:
    """The process entry point: :func:`main`, then an immediate exit.

    A ``SystemExit`` from ``main`` (argparse's ``--help``, ``--version`` and
    usage errors, or a bad family triple) gives its int code, and ``None``
    gives 0, as with ``sys.exit``.  The ``atexit`` handlers run (through
    CPython's ``atexit._run_exitfuncs``), since coverage tools and ``site``
    hooks rely on them, and both standard streams are flushed; a flush that
    fails is ignored, since ``main`` has flushed stdout already and reported
    any failure.  Then ``os._exit`` ends the process, skipping the
    interpreter's teardown: the unloading of every module and the final
    garbage collection.  No ``fano4`` code holds a file, a thread or a
    handler at that point.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code or 0   # argparse and _family_arg exit with an int
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None: the stream was closed at start
                stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
