"""Command-line interface.

Exit codes: 0 for success (consistent, form holds, equivalent), 1 for a
negative check result (no answer set, form violated, not equivalent),
2 for usage errors, 3 for input errors (unreadable files, syntax
errors, enumeration caps).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import AspnfError
from .generate import decode_3col, encode_3col, graph, random_kernel_program
from .kernel import (
    antichain_to_kernel,
    check_kernel,
    equivalent_mod_projection,
    kernelize,
    parse_antichain,
)
from .model import Program
from .normalize import _trace_dict, check_3kernel, three_kernelize
from .semantics import _answer_tuples, well_founded
from .textio import export_dot, parse_program, render_program, split_atom_list


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise AspnfError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from exc


def _read_program(args: argparse.Namespace, attr: str = "file") -> Program:
    allow = getattr(args, "allow_reserved", False)
    return parse_program(_read_text(getattr(args, attr)), allow_reserved=allow)


def _format_set(atoms) -> str:
    return ", ".join(sorted(atoms))


def _cmd_parse(args: argparse.Namespace) -> int:
    program = _read_program(args)
    if args.dot:
        print(export_dot(program), end="")
    else:
        print(render_program(program), end="")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    # Sorted name tuples: one JSON list, or one line, per answer set.
    collection = _answer_tuples(_read_program(args), args.max_atoms)
    if args.json:
        # The json.dumps layout, written with joins (several times faster):
        # parse_program admits no atom name with a character JSON escapes.
        print("[" + ", ".join(
            '["' + '", "'.join(t) + '"]' if t else "[]" for t in collection
        ) + "]")
    else:
        for answer_set in collection:
            print(", ".join(answer_set))
    return 0 if collection else 1


def _cmd_wfs(args: argparse.Namespace) -> int:
    wfs = well_founded(_read_program(args))
    print(f"true: {_format_set(wfs.true_atoms)}")
    print(f"false: {_format_set(wfs.false_atoms)}")
    print(f"undefined: {_format_set(wfs.undefined_atoms)}")
    return 0


def _cmd_kernel_check(args: argparse.Namespace) -> int:
    report = check_kernel(_read_program(args))
    print(f"kernel form: {'yes' if report.is_kernel else 'no'}")
    for violation in report.violations:
        print(f"  - {violation.condition}: {violation.witness}")
    return 0 if report.is_kernel else 1


def _cmd_3kernel_check(args: argparse.Namespace) -> int:
    report = check_3kernel(_read_program(args))
    lines = [f"3-kernel form: {'yes' if report.is_3kernel else 'no'}"]
    lines += [
        f"  - condition {v.condition} ({v.label}): {v.witness}"
        for v in report.violations
    ]
    print("\n".join(lines))
    return 0 if report.is_3kernel else 1


def _cmd_kernelize(args: argparse.Namespace) -> int:
    result, universe = kernelize(_read_program(args), args.max_atoms)
    print(f"% universe: {_format_set(universe)}")
    print(render_program(result), end="")
    return 0


def _cmd_antichain2kernel(args: argparse.Namespace) -> int:
    antichain = parse_antichain(_read_text(args.file))
    print(render_program(antichain_to_kernel(antichain)), end="")
    return 0


def _cmd_3kernelize(args: argparse.Namespace) -> int:
    result, trace = three_kernelize(_read_program(args))
    text = render_program(result)
    if args.trace:
        # the trace takes the text of each rule of the result from the output
        rendered = dict(zip(result.rules, text.split("\n")))
        data = (json.dumps(_trace_dict(trace, rendered)) + "\n").encode()
        # Overwritten in place, not opened with O_TRUNC: truncating frees
        # the old file's blocks only for the write to allocate new ones,
        # which costs over ten times the write of a few kB. A crash mid-write
        # can then leave old bytes after new ones, where a truncating write
        # leaves a short file; either way the trace is broken. Pipes and
        # devices report size 0, so they are never truncated.
        fd = os.open(args.trace, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as handle:
            old_size = os.fstat(fd).st_size
            handle.write(data)
            if old_size > len(data):
                handle.truncate()
    print(text, end="")
    return 0


def _node_id(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"expected a node id, got {token!r}") from None


def _read_graph(path: str):
    nodes: list[int] = []
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("nodes:"):
                nodes.extend(map(_node_id, line[len("nodes:"):].split()))
            elif line.startswith("edge:"):
                ends = line[len("edge:"):].split()
                if len(ends) != 2:
                    raise ValueError("expected two node ids after 'edge:'")
                edges.append((_node_id(ends[0]), _node_id(ends[1])))
            else:
                raise AspnfError(f"{path}:{lineno}: unrecognized line {line!r}")
        except ValueError as exc:
            raise AspnfError(f"{path}:{lineno}: {exc}") from exc
    try:
        return graph(nodes, edges)
    except ValueError as exc:
        raise AspnfError(f"{path}: {exc}") from exc


def _cmd_encode_3col(args: argparse.Namespace) -> int:
    print(render_program(encode_3col(_read_graph(args.graphfile))), end="")
    return 0


def _cmd_decode_3col(args: argparse.Namespace) -> int:
    g = _read_graph(args.graphfile)
    for raw in sys.stdin:
        atoms = frozenset(split_atom_list(raw))
        coloring = decode_3col(atoms, g)
        print(" ".join(f"{v}={coloring[v]}" for v in g.nodes))
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    first = _read_program(args, "file1")
    second = _read_program(args, "file2")
    atoms = frozenset(split_atom_list(args.over))
    same = equivalent_mod_projection(first, second, atoms, args.max_atoms)
    print("equivalent" if same else "not equivalent")
    return 0 if same else 1


def _cmd_gen_kernel(args: argparse.Namespace) -> int:
    if args.rules < args.atoms:
        args.parser.error(
            f"--rules must be at least --atoms ({args.atoms}), got {args.rules}"
        )
    program = random_kernel_program(
        args.atoms, args.rules, max_body=args.max_body, seed=args.seed
    )
    print(render_program(program), end="")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}"
        )
    return value


def _add_allow_reserved(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--allow-reserved",
        action="store_true",
        help="accept '__' atoms (programs produced by the transformations)",
    )


def _add_max_atoms(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--max-atoms", type=_positive_int, default=None, help="enumeration cap override"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every call of :func:`main` shares it."""
    parser = argparse.ArgumentParser(
        prog="aspnf",
        description="Normal forms and reference semantics for answer-set programs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("parse", help="echo the normalized program")
    sub.add_argument("file")
    sub.add_argument("--dot", action="store_true", help="emit DOT instead")
    _add_allow_reserved(sub)
    sub.set_defaults(func=_cmd_parse)

    sub = commands.add_parser("solve", help="enumerate answer sets")
    sub.add_argument("file")
    sub.add_argument("--json", action="store_true")
    _add_max_atoms(sub)
    _add_allow_reserved(sub)
    sub.set_defaults(func=_cmd_solve)

    sub = commands.add_parser("wfs", help="well-founded model")
    sub.add_argument("file")
    _add_allow_reserved(sub)
    sub.set_defaults(func=_cmd_wfs)

    sub = commands.add_parser("kernel-check", help="check kernel form")
    sub.add_argument("file")
    _add_allow_reserved(sub)
    sub.set_defaults(func=_cmd_kernel_check)

    sub = commands.add_parser("3kernel-check", help="check 3-kernel form")
    sub.add_argument("file")
    _add_allow_reserved(sub)
    sub.set_defaults(func=_cmd_3kernel_check)

    sub = commands.add_parser(
        "kernelize", help="equivalent kernel program via enumeration"
    )
    sub.add_argument("file")
    _add_max_atoms(sub)
    sub.set_defaults(func=_cmd_kernelize)

    sub = commands.add_parser(
        "antichain2kernel", help="kernel program for an anti-chain file"
    )
    sub.add_argument("file")
    sub.set_defaults(func=_cmd_antichain2kernel)

    sub = commands.add_parser("3kernelize", help="transform kernel to 3-kernel")
    sub.add_argument("file")
    sub.add_argument("--trace", metavar="OUT.json", help="write the transform trace")
    _add_allow_reserved(sub)
    sub.set_defaults(func=_cmd_3kernelize)

    sub = commands.add_parser("encode-3col", help="3-colorability encoder")
    sub.add_argument("graphfile")
    sub.set_defaults(func=_cmd_encode_3col)

    sub = commands.add_parser(
        "decode-3col", help="decode colorings from answer sets on stdin"
    )
    sub.add_argument("graphfile")
    sub.set_defaults(func=_cmd_decode_3col)

    sub = commands.add_parser("equiv", help="equivalence modulo projection")
    sub.add_argument("file1")
    sub.add_argument("file2")
    sub.add_argument("--over", required=True, help="comma-separated atoms")
    _add_max_atoms(sub)
    _add_allow_reserved(sub)
    sub.set_defaults(func=_cmd_equiv)

    sub = commands.add_parser("gen-kernel", help="random kernel program")
    sub.add_argument("--atoms", type=_positive_int, required=True)
    sub.add_argument("--rules", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--max-body", type=_positive_int, default=3)
    sub.set_defaults(func=_cmd_gen_kernel, parser=sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AspnfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
