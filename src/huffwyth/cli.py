"""Command line front end.

Subcommands: fib, lucas, wythoff, minseq, cost, huffman, classify, verify,
selftest.  Exit codes: 0 on success, 1 on usage or input errors, 2 when a
verification (verify, selftest) finds a mismatch.  selftest recomputes the
paper's five worked examples and compares each with its table shipped under
fixtures/, the only copy of those examples in the package.

Every int the commands print or parse, flag values and weights included,
goes through numbers._to_decimal and _from_decimal, so values of any length
work without changing the interpreter's int/str digit limit.

fib, lucas, cost, minseq, wythoff and verify (its closed form) check the
size of what they would print before any work starts, and exit 1 past
_MAX_DIGITS digits in one number or _MAX_OUTPUT characters in all;
huffman --trace bounds its trace from the values before printing it,
against the same _MAX_OUTPUT.  verify exits 1 past _MAX_CANDIDATES
candidates unless --limit sets another limit, and refuses a huge box
before it builds the closed form or the count.  The library has no
output limits.
"""

import argparse
import os
import sys
from itertools import chain

from . import huffman, oracle, theorems, wythoff
from .numbers import _check_int, _from_decimal, _to_decimal, fib, lucas

__all__ = ["main", "entrypoint"]

# Making the text of one number costs about the square of its length, so
# these keep each command near a second.
_MAX_DIGITS = 200_000            # in any one printed number
_MAX_OUTPUT = 20_000_000         # characters printed in all
# The oracle's slowest box walk (n = 3, abs) took 0.42 s over 487,344 candidates
# (Python 3.11.7, 2 vCPUs), so this keeps verify near 0.4 s.
_MAX_CANDIDATES = 500_000        # verify's default --limit


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int(text: str) -> int:
    return _from_decimal(text)


_int.__name__ = "int"   # argparse names the type in "invalid int value: 'abc'"


def parse_weights(text: str) -> tuple[int, ...]:
    """Parse a comma-separated list of positive integers."""
    try:
        # _from_decimal("") raises too, so an empty part is malformed
        return tuple(_from_decimal(p.strip()) for p in text.split(","))
    except ValueError:
        raise UsageError(f"malformed weight list: {text!r}") from None


def _csv_chunks(trace):
    """Yield a trace's CSV rows: step, merged, pos, weights.

    No field needs quoting: each is an int, empty, or digits joined by
    spaces.
    """
    rows = trace.text_rows()
    yield "step,merged,pos,weights\n0,,," + " ".join(next(rows)) + "\n"
    for i, (row, pos) in enumerate(zip(rows, trace.positions), 1):
        yield f"{i},{row[pos - 1]},{pos}," + " ".join(row) + "\n"


def format_tree(tree) -> str:
    """Render a tree as indented lines: '+' internal nodes, '-' leaves."""
    n = tree.size
    lines = [f"{'  ' * depth}{'-' if v < n else '+'} {_to_decimal(tree.weights[v])}"
             for v, depth in tree.preorder()]
    return "\n".join(lines) + "\n"


def format_codebook(tree) -> str:
    """Render 'index weight codeword' lines, leaves numbered left to right."""
    weights = huffman.leaf_weights(tree)
    lines = []
    for (idx, code), w in zip(huffman.codebook(tree), weights):
        lines.append(f"{idx} {_to_decimal(w)} {code if code else '-'}")
    return "\n".join(lines) + "\n"


MARKER = "*"    # follows each step's merged value, as in the paper's tables


def _table_chunks(trace):
    """Yield a trace's table, one row per intermediate sequence, as the fixtures hold it.

    The merged value of each step carries MARKER at the position where the
    tie policy inserted it.
    """
    rows = trace.text_rows()
    yield "step | sequence\n   0 | " + " ".join(next(rows)) + "\n"
    for i, (row, pos) in enumerate(zip(rows, trace.positions), 1):
        if len(row) > 1:
            row = list(row)
            row[pos - 1] += MARKER
        yield f"{i:>4} | " + " ".join(row) + "\n"


def _fixture_text(name: str) -> str:
    from importlib import resources     # only selftest needs it; it slows start-up
    return (resources.files("huffwyth") / "fixtures" / f"{name}.txt").read_text()


# The paper's worked examples, all at n = 10: (fixture stem, title, k), where
# k None is the absolutely ordered class.  The shipped fixture tables are
# the only record of their weights (row 0), steps and total (last row).
_EXAMPLE_N = 10
_EXAMPLES = (
    ("example1", "absolutely ordered", None),
    ("example2", "0-ordered", 0),
    ("example3", "1-ordered", 1),
    ("example4", "4-ordered", 4),
    ("example5", "7-ordered", 7),
)


def run_selftest(out) -> int:
    """Recompute each worked example and diff its table against the shipped fixture.

    The table of the trace of min_k_sequence(10, k) must equal the fixture
    text, so one comparison checks the weights, every step and the total.
    Writes one line per example, plus a unified diff after a failing one,
    and a summary line; returns 0 when all match and 2 otherwise.
    """
    failures = 0
    for stem, title, k in _EXAMPLES:
        trace = huffman.run_huffman(theorems.min_k_sequence(_EXAMPLE_N, k))
        rendered, fixture = "".join(_table_chunks(trace)), _fixture_text(stem)
        label = f"{stem} ({title}, n={_EXAMPLE_N})"
        if rendered == fixture:
            out(f"{label}: ok, total {trace.total}")
            continue
        import difflib    # only a failure needs it; it slows start-up
        failures += 1
        out(f"{label}: FAIL")
        for line in difflib.unified_diff(fixture.splitlines(), rendered.splitlines(),
                                         fromfile=f"{stem}.txt", tofile="computed", lineterm=""):
            out(line)
    out("selftest: ok" if failures == 0 else f"selftest: {failures} example(s) FAILED")
    return 0 if failures == 0 else 2


def _add_class(p) -> None:
    """Add the required --k/--abs choice; --abs leaves args.k None."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=_int)
    group.add_argument("--abs", action="store_true")


def _build_parser() -> _Parser:
    parser = _Parser(prog="huffwyth")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fib", help="print a Fibonacci number")
    p.add_argument("--n", type=_int, required=True)

    p = sub.add_parser("lucas", help="print a Lucas number")
    p.add_argument("--n", type=_int, required=True)

    p = sub.add_parser("wythoff", help="print a row of the Wythoff array")
    p.add_argument("--row", type=_int, required=True)
    p.add_argument("--cols", type=_int, required=True)
    p.add_argument(
        "--generalized", action="store_true",
        help="start at column 0 (row index and lower Wythoff seed) "
             "instead of the classical array columns",
    )

    p = sub.add_parser("minseq", help="print a minimizing sequence and its cost")
    p.add_argument("--n", type=_int, required=True)
    _add_class(p)

    p = sub.add_parser("cost", help="print only the closed-form cost")
    p.add_argument("--n", type=_int, required=True)
    _add_class(p)

    p = sub.add_parser("huffman", help="run the merge process on given weights")
    p.add_argument("--weights", required=True, help="comma separated positive integers")
    p.add_argument("--sort", action="store_true", help="sort the weights first")
    p.add_argument("--trace", action="store_true", help="print the full trace")
    p.add_argument("--tree", action="store_true", help="print the tree")
    p.add_argument("--codebook", action="store_true", help="print the codewords")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("--tie", choices=[t.value for t in huffman.TiePolicy], default="before",
                   help="where the merged node lands among equal values")

    p = sub.add_parser("classify", help="order-classify a weight sequence")
    p.add_argument("--weights", required=True)
    p.add_argument("--sort", action="store_true")

    p = sub.add_parser("verify", help="brute-force check a closed-form minimum")
    p.add_argument("--n", type=_int, required=True)
    _add_class(p)
    p.add_argument("--max-weight", type=_int, default=None)
    p.add_argument("--limit", type=_int, default=_MAX_CANDIDATES)

    sub.add_parser("selftest", help="recompute the reference examples")
    return parser


def _fib_bits(i: int) -> int:
    """An upper bound on the bit length of F(i): F(i) <= phi**(i-1) and log2(phi) < 0.7."""
    return 7 * i // 10 + 2


def _fib_bits_sum(m: int) -> int:
    """An upper bound on the sum of _fib_bits(i) for i = 1..m."""
    return 7 * m * (m + 1) // 20 + 2 * m


def _output_bits(args):
    """Upper bounds on what a command prints, from its flags alone.

    Returns (bits of the largest number, bits of all numbers, how many
    numbers), all 0 for a command whose output its input bounds.  A
    negative size counts as 0; the command itself then rejects it.  verify
    gets minseq's bound, for the closed form its report prints.
    """
    if args.command in ("fib", "lucas", "cost"):
        # L(n) <= F(n+2), and either class's cost is below F(n+4)
        bits = _fib_bits(max(args.n, 0) + {"fib": 0, "lucas": 2, "cost": 4}[args.command])
        return bits, bits, 1
    if args.command in ("minseq", "verify"):
        # p(i) <= F(i) in every class
        n = max(args.n, 0)
        return _fib_bits(n + 4), _fib_bits_sum(n) + _fib_bits(n + 4), n + 1
    if args.command == "wythoff":
        # w[i][j] = F(j-1) i + F(j) floor((i+1) phi) <= F(j+2) (i+1), for columns j < length
        length = max(args.cols, 0) + (0 if args.generalized else 2)
        row = (abs(args.row) + 1).bit_length()
        return _fib_bits(length + 1) + row, _fib_bits_sum(length + 1) + length * row, length
    return 0, 0, 0


def _digits(bits: int) -> int:
    """An upper bound on the digits of a number of this many bits: log10(2) < 0.30103."""
    return bits * 30103 // 100000 + 1


def _check_output(command, chars) -> None:
    if chars > _MAX_OUTPUT:
        raise UsageError(f"{command} would print up to {_to_decimal(chars)} characters; "
                         f"the limit is {_MAX_OUTPUT} characters in all")


def _check_size(args) -> None:
    """Raise UsageError when a command would print past _MAX_DIGITS or _MAX_OUTPUT."""
    largest, total, count = _output_bits(args)
    digits = _digits(largest)
    if digits > _MAX_DIGITS:
        raise UsageError(f"{args.command} would print a number of up to {_to_decimal(digits)} "
                         f"digits; the limit is {_MAX_DIGITS} digits per number")
    # a digit and a separator more per number
    _check_output(args.command, _digits(total) + 2 * count)


def _trace_chars(trace, fmt: str) -> int:
    """An upper bound on the characters of a trace in a format, from its 2n-1 values.

    Every step consumes the two smallest values left, so the value of rank
    r (from 0) in sorted order is in the rows up to P(r // 2); merged value
    q is in the rows from P(q + 1).  The rows hold n(n+1)/2 values in all,
    each with a separator.  Every value is counted once more, for the
    merged column and the JSON document's second copy of P(0).
    """
    n = trace.size
    digits = [_digits(v.bit_length()) for v in sorted(trace.initial + trace.merged)]
    chars = sum(d * (r // 2 + 1) for r, d in enumerate(digits)) + sum(digits)
    chars -= sum(_digits(v.bit_length()) * (q + 1) for q, v in enumerate(trace.merged))
    width = len(str(n))     # of a step number or position
    if fmt == "json":
        # quotes, comma, newline and indent per value; keys and padding per step
        per_value, per_row = 12, 2 * width + 120
    elif fmt == "csv":
        per_value, per_row = 1, 2 * width + 4
    else:
        per_value, per_row = 1, width + 7 + len(MARKER)
    return chars + per_value * (n * (n + 1) // 2 + n) + per_row * n + 64


def _cmd_huffman(args) -> int:
    weights = parse_weights(args.weights)
    if args.sort:
        weights = tuple(sorted(weights))
    policy = huffman.TiePolicy(args.tie)
    # each output runs the merge loop at most once, and the bare total needs none
    if args.trace:
        trace = huffman.run_huffman(weights, policy)
        # Row by row: a trace has O(n^2) characters, 5.5 MB at n = 400.
        _check_output("huffman --trace", _trace_chars(trace, args.format))
        if args.format == "json":
            chunks = chain(huffman._json_chunks(trace, 2), ("\n",))
        elif args.format == "csv":
            chunks = _csv_chunks(trace)
        else:
            chunks = _table_chunks(trace)
        sys.stdout.writelines(chunks)
    if args.tree or args.codebook:
        tree = huffman.build_tree(weights, policy)
        if args.tree:
            print(format_tree(tree), end="")
        if args.codebook:
            print(format_codebook(tree), end="")
    if not (args.trace or args.tree or args.codebook):
        print(_to_decimal(sum(huffman.validate_weights(weights))))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _check_size(args)
        if args.command == "fib":
            print(_to_decimal(fib(args.n)))
        elif args.command == "lucas":
            print(_to_decimal(lucas(args.n)))
        elif args.command == "wythoff":
            _check_int("--cols", args.cols, 1)
            start = 0 if args.generalized else 2
            row = wythoff.wythoff_row(args.row, start + args.cols)
            print(" ".join(map(_to_decimal, row[start:])))
        elif args.command == "minseq":
            seq, cost = theorems.min_k_sequence(args.n, args.k), theorems.min_k_cost(args.n, args.k)
            print(",".join(map(_to_decimal, seq)))
            print(f"cost {_to_decimal(cost)}")
        elif args.command == "cost":
            print(_to_decimal(theorems.min_k_cost(args.n, args.k)))
        elif args.command == "huffman":
            return _cmd_huffman(args)
        elif args.command == "classify":
            weights = parse_weights(args.weights)
            if args.sort:
                weights = tuple(sorted(weights))
            print(huffman.classify_order(weights))
        elif args.command == "verify":
            report = oracle.brute_force_min(args.n, args.k, args.max_weight, args.limit)
            print(oracle.report_to_json(report, indent=2))
            return 0 if report.matches_closed_form else 2
        elif args.command == "selftest":
            return run_selftest(print)
    except (UsageError, ValueError) as exc:
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
