"""Command line front end.

Subcommands: fib, lucas, wythoff, minseq, cost, huffman, classify, verify,
selftest.  Exit codes: 0 on success, 1 on usage or input errors, 2 when a
verification (verify, selftest) finds a mismatch.
"""

import argparse
import difflib
import os
import sys
from importlib import resources
from itertools import chain

from . import golden, huffman, oracle, theorems, wythoff
from .numbers import fib, lucas

__all__ = ["main", "entrypoint"]

MARKER = "*"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_weights(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of positive integers."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise UsageError(f"malformed weight list: {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"malformed weight list: {text!r}") from None


def _table_chunks(trace, marker):
    """Yield format_trace_table's text, one row at a time."""
    rows = trace.text_rows()
    yield "step | sequence\n   0 | " + " ".join(next(rows)) + "\n"
    for i, (row, pos) in enumerate(zip(rows, trace.positions), 1):
        if len(row) > 1:
            row = list(row)
            row[pos - 1] += marker
        yield f"{i:>4} | " + " ".join(row) + "\n"


def format_trace_table(trace, marker: str = MARKER) -> str:
    """Render a trace as the canonical table, one row per intermediate sequence.

    The merged value of each step carries a marker suffix at the position
    where the tie policy inserted it.
    """
    return "".join(_table_chunks(trace, marker))


def _csv_chunks(trace):
    """Yield format_trace_csv's text, one row at a time."""
    rows = trace.text_rows()
    yield "step,merged,pos,weights\n0,,," + " ".join(next(rows)) + "\n"
    for i, (row, pos) in enumerate(zip(rows, trace.positions), 1):
        yield f"{i},{row[pos - 1]},{pos}," + " ".join(row) + "\n"


def format_trace_csv(trace) -> str:
    """Render a trace as CSV rows: step, merged, pos, weights.

    No field needs quoting: each is an int, empty, or digits joined by
    spaces.
    """
    return "".join(_csv_chunks(trace))


def format_tree(tree) -> str:
    """Render a tree as indented lines: '+' internal nodes, '-' leaves."""
    n = tree.size
    lines = [f"{'  ' * depth}{'-' if v < n else '+'} {tree.weights[v]}"
             for v, depth in tree.preorder()]
    return "\n".join(lines) + "\n"


def format_codebook(tree) -> str:
    """Render 'index weight codeword' lines, leaves numbered left to right."""
    weights = huffman.leaf_weights(tree)
    lines = []
    for (idx, code), w in zip(huffman.codebook(tree), weights):
        lines.append(f"{idx} {w} {code if code else '-'}")
    return "\n".join(lines) + "\n"


def _fixture_text(name: str) -> str:
    return (resources.files("huffwyth") / "fixtures" / f"{name}.txt").read_text()


def run_selftest(out) -> int:
    """Recompute the five reference traces and diff them against the goldens.

    Writes one line per example plus a summary line; returns 0 when all
    match and 2 otherwise.
    """
    failures = 0
    for ex in golden.GOLDEN_EXAMPLES:
        problems = []
        if theorems.min_k_sequence(ex.n, ex.k) != ex.weights:
            problems.append("construction does not reproduce the stored weights")
        trace = huffman.run_huffman(ex.weights)
        if tuple(trace.sequences()) != ex.rows:
            problems.append("trace rows diverge from the stored rows")
        if trace.total != ex.total:
            problems.append(f"total {trace.total} != {ex.total}")
        rendered = format_trace_table(trace)
        fixture = _fixture_text(ex.name)
        if rendered != fixture:
            diff = difflib.unified_diff(
                fixture.splitlines(), rendered.splitlines(),
                fromfile=f"{ex.name}.txt", tofile="computed", lineterm="",
            )
            problems.append("rendering differs from fixture:\n" + "\n".join(diff))
        if problems:
            failures += 1
            out(f"{ex.name} ({ex.title}): FAIL")
            for p in problems:
                out(f"  {p}")
        else:
            out(f"{ex.name} ({ex.title}): ok, total {trace.total}")
    out("selftest: ok" if failures == 0 else f"selftest: {failures} example(s) FAILED")
    return 0 if failures == 0 else 2


def _add_class(p) -> None:
    """Add the required --k/--abs choice; --abs leaves args.k None."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--abs", action="store_true")


def _build_parser() -> _Parser:
    parser = _Parser(prog="huffwyth")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fib", help="print a Fibonacci number")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lucas", help="print a Lucas number")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("wythoff", help="print a row of the Wythoff array")
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument(
        "--generalized", action="store_true",
        help="start at column 0 (row index and lower Wythoff seed) "
             "instead of the classical array columns",
    )

    p = sub.add_parser("minseq", help="print a minimizing sequence and its cost")
    p.add_argument("--n", type=int, required=True)
    _add_class(p)

    p = sub.add_parser("cost", help="print only the closed-form cost")
    p.add_argument("--n", type=int, required=True)
    _add_class(p)

    p = sub.add_parser("huffman", help="run the merge process on given weights")
    p.add_argument("--weights", required=True, help="comma separated positive integers")
    p.add_argument("--sort", action="store_true", help="sort the weights first")
    p.add_argument("--trace", action="store_true", help="print the full trace")
    p.add_argument("--tree", action="store_true", help="print the tree")
    p.add_argument("--codebook", action="store_true", help="print the codewords")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--tie", choices=["before", "after"], default="before",
                   help="where the merged node lands among equal values")
    p.add_argument("--marker", default=MARKER,
                   help="suffix marking the merged value in table output")

    p = sub.add_parser("classify", help="order-classify a weight sequence")
    p.add_argument("--weights", required=True)
    p.add_argument("--sort", action="store_true")

    p = sub.add_parser("verify", help="brute-force check a closed-form minimum")
    p.add_argument("--n", type=int, required=True)
    _add_class(p)
    p.add_argument("--max-weight", type=int, default=None)
    p.add_argument("--limit", type=int, default=oracle.DEFAULT_CANDIDATE_LIMIT)

    sub.add_parser("selftest", help="recompute the reference examples")
    return parser


def _tie_policy(name: str) -> huffman.TiePolicy:
    return (
        huffman.TiePolicy.MERGED_BEFORE_EQUALS
        if name == "before"
        else huffman.TiePolicy.MERGED_AFTER_EQUALS
    )


def _cmd_huffman(args, out) -> int:
    weights = parse_weights(args.weights)
    if args.sort:
        weights = tuple(sorted(weights))
    policy = _tie_policy(args.tie)
    trace = huffman.run_huffman(weights, policy)
    if args.trace:
        # Row by row: a trace has O(n^2) characters, 5.5 MB at n = 400.
        if args.format == "json":
            chunks = chain(huffman._json_chunks(trace, 2), ("\n",))
        elif args.format == "csv":
            chunks = _csv_chunks(trace)
        else:
            chunks = _table_chunks(trace, args.marker)
        sys.stdout.writelines(chunks)
    if args.tree or args.codebook:
        tree = huffman.build_tree(weights, policy)
        if args.tree:
            out(format_tree(tree), end="")
        if args.codebook:
            out(format_codebook(tree), end="")
    if not (args.trace or args.tree or args.codebook):
        out(trace.total)
    return 0


def _cmd_verify(args, out) -> int:
    report = oracle.brute_force_min(args.n, args.k, args.max_weight, args.limit)
    out(oracle.report_to_json(report, indent=2))
    return 0 if report.matches_closed_form else 2


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Since 3.11 (and 3.10.7) Python refuses to convert ints of more than
    # 4300 digits to or from text by default; exact values such as
    # fib --n 30000 exceed that.  The trace and report renderers convert
    # through numbers._to_decimal and need no lift, but the commands' own
    # prints, parse_weights and the tree and codebook renderers use str()
    # and int().  The limit is restored for in-process callers.
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        return _main(argv)
    saved = limit()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _main(argv) -> int:

    def out(*parts, end="\n"):
        print(*parts, end=end)

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "fib":
            out(fib(args.n))
        elif args.command == "lucas":
            out(lucas(args.n))
        elif args.command == "wythoff":
            if args.cols < 1:
                raise UsageError(f"--cols must be >= 1, got {args.cols}")
            start = 0 if args.generalized else 2
            row = wythoff.wythoff_row(args.row, start + args.cols)
            out(" ".join(str(v) for v in row[start:]))
        elif args.command == "minseq":
            seq, cost = theorems.min_k_sequence(args.n, args.k), theorems.min_k_cost(args.n, args.k)
            out(",".join(str(w) for w in seq))
            out(f"cost {cost}")
        elif args.command == "cost":
            out(theorems.min_k_cost(args.n, args.k))
        elif args.command == "huffman":
            return _cmd_huffman(args, out)
        elif args.command == "classify":
            weights = parse_weights(args.weights)
            if args.sort:
                weights = tuple(sorted(weights))
            out(huffman.classify_order(weights))
        elif args.command == "verify":
            return _cmd_verify(args, out)
        elif args.command == "selftest":
            return run_selftest(out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (say, `| head`).  Python's recipe: point
        # stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
