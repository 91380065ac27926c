"""Command-line front end.

Subcommands: count, enumerate, build, verify, table, divisor-fn, check.
Results go to stdout as a single JSON document (CSV for table, bare values
with --format plain); diagnostics go to stderr.  Exit codes: 0 success or
verified, 1 verification failure, 2 usage error or an output that cannot be
written, 3 enumeration cap hit.
A command reports a usage error by raising ValueError, which `run` prints
as "error: ..." (exit 2); `enumerate` reports its cap itself (exit 3).
Each command imports only the modules it runs, and those import only what
they call, so `divisor-fn` loads `arith` alone, no counting command loads
`systems`, `build` loads `systems` and `shape`, and `verify` loads those
and `verify`, without `arith`, `jof` or `fractions`.
JSON documents are written a batch at a time, never as one whole string.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice


def _parse_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(chunk) for chunk in text.split(","))
    except ValueError:
        raise ValueError(f"bad tuple {text!r}, expected comma-separated integers")


_BATCH = 4096  # encoder chunks per write


def _emit(doc: dict, fmt: str, plain_lines) -> None:
    """Write plain_lines, or doc as json.dumps(doc, indent=2) would, a batch
    of encoder chunks at a time rather than as one string.  plain_lines is
    read only for --format plain, so callers pass it lazily (a map or a
    generator): a JSON run formats each value once, in the encoder, where
    a value of 10^5 digits takes as long to format as to compute."""
    if fmt == "plain":
        for line in plain_lines:
            print(line)
        return
    write = sys.stdout.write
    chunks = json.JSONEncoder(indent=2).iterencode(doc)
    while batch := "".join(islice(chunks, _BATCH)):
        write(batch)
    write("\n")


def _count_row(n: int, m: int, unordered: bool) -> dict:
    from .counting import count_m_part, count_unordered

    row = {"m": m, "count": count_m_part(n, m).value}
    if unordered:
        row["unordered"] = count_unordered(n, m).value
    return row


def _cmd_count(args) -> int:
    if args.tuple is not None:
        if args.m is not None or args.unordered:
            raise ValueError("--tuple does not combine with --m/--unordered")
        from .jof import count_for_tuple

        parts = _parse_tuple(args.tuple)
        result = count_for_tuple(parts)
        _emit(
            {"tuple": list(parts), "count": result, "method": "closed-form"},
            args.format,
            map(str, [result]),
        )
        return 0
    from .arith import big_omega

    n = args.n
    shown = "unordered" if args.unordered else "count"
    if args.m is not None:
        doc = {"N": n, **_count_row(n, args.m, args.unordered), "method": "closed-form"}
        plain = map(str, [doc[shown]])
    else:
        # every m that can be non-zero
        rows = [_count_row(n, m, args.unordered)
                for m in range(1, max(1, big_omega(n)) + 1)]
        doc = {"N": n, "counts": rows, "method": "closed-form"}
        plain = (f"{row['m']} {row[shown]}" for row in rows)
    _emit(doc, args.format, plain)
    return 0


# The enumerate document is json.dumps(doc, indent=2) of {"tuple", "count",
# "jofs", "text"}, written here piece by piece in the same bytes, without
# the document's lists: the indented encoder is pure Python.  The JOF walk
# hands over one chunk of jof._CHUNK JOFs at a time; each chunk's "jofs"
# block is written at once and its "text" block to a temporary file, which
# is copied out _SPOOL characters at a time once the "jofs" list ends, so
# memory does not grow with the JOFs.
# No list is ever empty (1:n_1,...,m:n_m is a JOF of every tuple), so no
# "[]" case arises.
_PAIR = "\n      [\n        %d,\n        %d\n      ]"
_SPOOL = 1 << 16  # 1 << 20 raised the traced peak from 0.8 to 4.4 MiB


class _Memo(dict):
    """Each entry's formatted text, formatted on first use: a tuple has few
    distinct (part, factor) entries, repeated across its many JOFs."""

    def __init__(self, form) -> None:
        super().__init__()
        self.form = form

    def __missing__(self, entry):
        text = self[entry] = self.form(entry)
        return text


def _cmd_enumerate(args) -> int:
    from . import jof, shape

    parts = _parse_tuple(args.tuple)
    cap = shape.DEFAULT_CAP if args.limit is None else args.limit
    if cap < 0:
        raise ValueError("--limit must be non-negative")
    try:
        parts, count = jof._counted(parts, cap)
    except shape.CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    write = sys.stdout.write
    text = _Memo(lambda entry: shape.jof_to_text((entry,))).__getitem__

    def line(found) -> str:
        return ",".join(map(text, found))

    if args.format == "plain":
        jof._walk(parts, lambda chunk: write("\n".join(map(line, chunk)) + "\n"))
        return 0
    import tempfile

    try:
        spool = tempfile.TemporaryFile("w+", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot open a temporary file for the text list: {exc}") from exc
    pair = _Memo(_PAIR.__mod__).__getitem__

    def block(chunk) -> None:
        lead = ",\n" if spool.tell() else ""
        write(lead + ",\n".join(["    [" + ",".join(map(pair, found)) + "\n    ]"
                                  for found in chunk]))
        spool.write(lead + ",\n".join(['    "' + line(found) + '"' for found in chunk]))

    with spool:
        write('{\n  "tuple": [\n%s\n  ],\n  "count": %d,\n  "jofs": [\n'
              % (",\n".join(f"    {n}" for n in parts), count))
        jof._walk(parts, block)
        write('\n  ],\n  "text": [\n')
        spool.seek(0)
        while lines := spool.read(_SPOOL):
            write(lines)
    write("\n  ]\n}\n")
    return 0


def _cmd_build(args) -> int:
    from . import shape, systems

    entries = shape.parse_jof_text(args.jof)
    # a system holds the sum of its cardinalities in values; past the bound
    # `enumerate` uses, it is refused here rather than run out of memory
    values = sum(shape.infer_parts(entries))
    if values > shape.DEFAULT_CAP:
        raise ValueError(
            f"the system has {values} values, more than the build cap of {shape.DEFAULT_CAP}"
        )
    if args.sum_and_distance:
        built = systems.to_sum_and_distance(systems.build_centred(entries))
    elif args.centred:
        built = systems.build_centred(entries)
    else:
        built = systems.build_sum_system(entries)
    _emit(systems.system_to_json(built), "json", ())
    return 0


def _doc_int(text: str) -> int:
    # run() lifts the 4300-digit int <-> str cap, but int(str) is quadratic in
    # the digits before Python 3.12 (a 10^6-digit value takes 9 s), and no
    # value of a system that fits in memory has 4300 digits
    if len(text.lstrip("-")) > 4300:
        raise ValueError("a document integer has more than 4300 digits")
    return int(text)


def _cmd_verify(args) -> int:
    from . import systems, verify

    system = None
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            doc = json.load(handle, parse_int=_doc_int)
    except OSError as exc:
        raise ValueError(f"cannot read {args.file}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        ok, reason = False, f"not valid JSON: {exc}"
    else:
        try:
            system = systems.system_from_json(doc)
        except ValueError as exc:
            ok, reason = False, str(exc)
        else:
            if isinstance(system, systems.CentredSumSystem):
                ok, reason = verify.verify_centred(system)
            else:
                ok, reason = verify.verify_sum_system(system)
    verdict = {"ok": ok, "reason": reason}
    if system is not None:
        verdict["N"] = system.N
        verdict["doubled"] = isinstance(system, systems.CentredSumSystem)
    _emit(verdict, args.format, ["ok" if ok else f"fail: {reason}"])
    return 0 if ok else 1


def _cmd_table(args) -> int:
    if args.max_n < 1 or args.max_m < 1:
        raise ValueError("--max-n and --max-m must be positive")
    from .counting import count_m_part

    print("N,m,count")
    for n in range(1, args.max_n + 1):
        for m in range(1, args.max_m + 1):
            print(f"{n},{m},{count_m_part(n, m).value}")
    return 0


def _cmd_divisor_fn(args) -> int:
    if args.r is not None and args.kind != "assoc":
        raise ValueError("--r only applies to --kind assoc")
    from . import arith

    if args.kind == "d":
        value = arith.classical_divisor(args.j, args.n)
    elif args.kind == "c":
        value = arith.nontrivial_divisor(args.j, args.n)
    elif args.kind == "assoc":
        value = arith.associated_divisor(args.j, args.r or 0, args.n)
    else:
        value = arith.squarefree_ordered_count(args.j, args.n)
    doc = {
        "kind": args.kind,
        "j": args.j,
        "r": args.r if args.kind == "assoc" else None,
        "n": args.n,
        "value": value,
    }
    _emit(doc, args.format, map(str, [value]))
    return 0


def _cmd_check(args) -> int:
    from .counting import divisor_sum_check

    report = divisor_sum_check(args.n, args.m)
    doc = report.as_dict()
    residuals = doc["residuals"]
    plain = ["ok" if report.ok else "fail " + " ".join(
        f"{k}={v}" for k, v in residuals.items()
    )]
    _emit(doc, args.format, plain)
    return 0 if report.ok else 1


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("json", "plain"), default="json",
        help="output style (default json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumsys",
        description="Construct, verify and count m-part sum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form counts of sum systems")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--n", type=int, help="count systems for this N over all part tuples")
    target.add_argument("--tuple", help="count JOFs of one fixed tuple, e.g. 9,5,6")
    p.add_argument("--m", type=int, help="restrict to m parts (default: one row per m)")
    p.add_argument("--unordered", action="store_true", help="also divide out part order")
    _add_format(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list every JOF of a tuple")
    p.add_argument("--tuple", required=True, help="comma-separated cardinalities")
    p.add_argument("--limit", type=int,  # None: shape.DEFAULT_CAP
                   help="enumeration cap (exceeding it is an error, not truncation)")
    _add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("build", help="build the system a JOF describes")
    p.add_argument("--jof", required=True,
                   help="part:factor pairs, e.g. 1:3,3:3,1:3,3:2,2:5")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--centred", action="store_true",
                       help="emit the centred system (doubled values)")
    group.add_argument("--sum-and-distance", action="store_true",
                       help="emit the positive halves with parity classes")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="verify a system JSON file")
    p.add_argument("--file", required=True, help="path to a system document")
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="CSV of counts for N and m up to bounds")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-m", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("divisor-fn", help="evaluate one divisor function")
    p.add_argument("--kind", choices=("d", "c", "assoc", "sqfree"), required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--r", type=int, help="upper index for --kind assoc (may be negative)")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_divisor_fn)

    p = sub.add_parser("check", help="divisor-sum identities at one (N, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_check)

    return parser


def run(argv=None) -> int:
    # exact values of any size, argv included: Python 3.11+ caps int <-> str
    # at 4300 digits, so the cap is lifted for this call and then restored
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: a usage error, or --help
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        # a BrokenPipeError: the reader closed stdout early (`| head`), so
        # the output stops there, with exit 0 whatever the command, as a
        # write may fail before or after the command's own code is known.
        # Any other: the output could not be written (a full disk,
        # `> /dev/full`, or enumerate's temporary file), a usage error.
        # stdout goes to devnull so the interpreter's final flush cannot
        # raise again.
        code = 0 if isinstance(exc, BrokenPipeError) else 2
        if code:
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
