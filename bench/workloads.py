"""The four workloads: a fixed op set each, built from the seed.

Every op is a closure that calls huffwyth through module attributes (so the
tracer's wrappers see it) and returns a small value; its check compares that
value with the benchmark's own references in refs.py and returns a message
when it is wrong.  Checks read only merged values, totals and returned
scalars, never `sequences()` or `input_seq`.

The seed changes the inputs but not the amount of work: sizes stay fixed
and only values, orders and small index offsets vary, so runs with
different seeds are comparable.
"""

import json
import math
import os
import random
import subprocess
import sys
import time

import refs
import tracer
from huffwyth import huffman, numbers, oracle, theorems, wythoff

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CLI_MAIN = "from huffwyth.cli import entrypoint; entrypoint()"
CLI_TRACED = f"import sys; sys.path.insert(0, {BENCH_DIR!r}); import tracer; tracer.child_main()"


class OpError(Exception):
    """The op did not produce an answer (it raised or exited non-zero)."""


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


class Workload:
    def __init__(self, ops, inputs, tail_pct, best_of=False, runner=None):
        self.ops = ops
        # op_tail_ms percentile: about the highest with ten samples beyond it
        # in the pool of a 40 s run.  It is fixed, not derived from each
        # run's sample count, so that a faster program does not switch
        # percentiles.
        self.tail_pct = tail_pct
        self.best_of = best_of          # cost ops by their fastest samples (see run.end_to_end)
        self.inputs = inputs            # descriptors recorded in the output
        self.runner = runner            # the CliRunner of a workload that runs CLI children
        self.in_process = runner is None


def _first_wrong(pairs):
    for what, got, want in pairs:
        if got != want:
            return f"{what}: got {str(got)[:80]}, want {str(want)[:80]}"
    return None


# ---------------------------------------------------------------- oracle-sweep

def oracle_sweep(seed, tiny=False):
    """Every closed form at n = 4..6 confirmed by a full scan (the main user path).

    n = 7 is left out: its scans take 2-3 s each, so a run of tens of
    seconds holds too few passes for a steady median and tail.  The calls inside a scan,
    many tiny traces and classifications, are the same at n = 6.
    """
    sizes = range(4, 6) if tiny else range(4, 7)
    jobs = [(n, k) for n in sizes for k in [None, *range(n - 2)]]
    random.Random(seed).shuffle(jobs)

    def scan(n, k):
        return oracle.brute_force_min_abs(n) if k is None else oracle.brute_force_min(n, k)

    def check(n, k, report):
        seq = refs.abs_minimizer(n) if k is None else refs.k_minimizer(n, k)
        cost = refs.abs_cost_mod(n) if k is None else refs.k_cost_mod(n, k)
        bound = max(seq) + 2
        return _first_wrong([
            ("best cost", report.best_cost % refs.P, cost),
            ("closed-form cost", report.closed_form_cost % refs.P, cost),
            ("closed-form sequence", tuple(report.closed_form_sequence), seq),
            ("minimizer among best", seq in report.best_sequences, True),
            ("candidates", report.candidates_examined, math.comb(n + bound - 1, n)),
            ("matches", report.matches_closed_form, True),
        ])

    ops = [Op(f"n{n}-{'abs' if k is None else f'k{k}'}",
              lambda n=n, k=k: scan(n, k),
              lambda r, n=n, k=k: check(n, k, r)) for n, k in jobs]
    inputs = {"n": list(sizes), "classes": "absolutely-ordered and k = 0..n-3 for each n",
              "weight_range": "1..max(closed form)+2 (default bound)",
              "tie_policy": "before (default)", "scans": len(jobs), "order": [o.label for o in ops]}
    return Workload(ops, inputs, tail_pct=75, best_of=True)


# ---------------------------------------------------------- big-inputs: traces

def _chain(weights, policy):
    trace = huffman.run_huffman(weights, policy)
    cls = huffman.classify_trace(trace)
    tree = huffman.build_tree(weights, policy)
    return (trace.merged_values(), trace.total, str(cls),
            huffman.wepl(tree), huffman.leaf_depths(tree), huffman.is_elongated(tree))


def _check_chain(weights, expected_cls, value):
    merged, total, cls, cost, depths, elongated = value
    ref_merged, ref_cls = refs.huffman_reference(weights)
    n, height = len(weights), max(depths)
    pairs = [
        ("merged values", merged, ref_merged),
        ("total", total, sum(weights)),
        ("class", cls, ref_cls),
        ("wepl is the sum of merged values", cost, sum(ref_merged)),
        ("leaf count", len(depths), n),
        ("Kraft sum", sum(1 << (height - d) for d in depths), 1 << height),
        ("is_elongated agrees with height", elongated, height == n - 1),
    ]
    if expected_cls is not None:
        pairs += [("minimizer class", cls, expected_cls),
                  ("minimizer depth profile", sorted(depths, reverse=True), refs.elongated_profile(n)),
                  ("minimizer cost", cost, refs.elongated_cost(weights))]
    return _first_wrong(pairs)


def _trace_ops(rng, tiny):
    """Trace, classify and tree on 11 inputs of height up to n-1, n = 2000."""
    n = 60 if tiny else 2000
    before, after = huffman.TiePolicy.MERGED_BEFORE_EQUALS, huffman.TiePolicy.MERGED_AFTER_EQUALS
    ks = [0, rng.randint(1, 5), n // 2 + rng.randint(-5, 5), n - 3]
    cases = [("min-abs", refs.abs_minimizer(n), before, "absolutely-ordered", "F(1)..F(n)")]
    cases += [(f"min-k{k}", refs.k_minimizer(n, k), before, f"{k}-ordered", f"k={k} minimizer")
              for k in ks]
    for tag in ("a", "b"):
        hi = rng.randint(2, 6) if tag == "a" else rng.randint(10, 30)
        w = tuple(sorted(rng.randint(1, hi) for _ in range(n)))
        cases += [(f"ties-{tag}-{p.value}", w, p, None, f"uniform 1..{hi}") for p in (before, after)]
    for tag in ("a", "b"):
        w = tuple(sorted(rng.sample(range(1, 10 ** 18), n)))
        cases.append((f"distinct-{tag}", w, before, None, "distinct uniform 1..1e18"))

    ops = [Op(label, lambda w=w, p=p: _chain(w, p),
              lambda v, w=w, c=cls: _check_chain(w, c, v))
           for label, w, p, cls, _ in cases]
    inputs = {"n": n, "cases": [{"label": label, "weights": desc, "tie_policy": p.value}
                                for label, _, p, _, desc in cases]}
    return ops, inputs


# --------------------------------------------------------- big-inputs: numbers

def _check_mod(what, got, want):
    return _first_wrong([(what + " mod P", got % refs.P, want)])


def _check_seq_mod(seq, want):
    for i, (got, w) in enumerate(zip(seq, want)):
        if got % refs.P != w:
            return f"entry {i}: got {str(got)[:40]} mod P != {w}"
    return None if len(seq) == len(want) else f"length {len(seq)} != {len(want)}"


def _fib_mods(lo, hi):
    """[F(lo) mod P, ..., F(hi-1) mod P]."""
    a, b = refs.fib_pair_mod(lo)
    out = []
    for _ in range(lo, hi):
        out.append(a)
        a, b = b, (a + b) % refs.P
    return out


def _number_ops(rng, tiny):
    """Fibonacci-scale numbers: numbers, wythoff and theorems at large indices."""
    scale = 100 if tiny else 1
    big = 100_000 // scale + rng.randrange(100)
    mid = 50_000 // scale + rng.randrange(100)
    seq_n = 1000 // scale + rng.randrange(10)
    m, k_cost, k_seq = rng.randint(20, 30), rng.randint(0, 100), rng.randint(0, min(20, seq_n - 3))
    row = refs.fib_list(m)[m]

    def lucas_form():
        return [1, 1] + [refs.lucas_mod(i) for i in range(1, seq_n - 1)]

    def fib_form_seq():
        f = _fib_mods(0, seq_n + 1)
        return [1] + f[1:k_seq + 2] + [(f[i - 1] + f[i - k_seq - 3]) % refs.P
                                       for i in range(k_seq + 3, seq_n + 1)]

    ops = [
        Op("fib", lambda: numbers.fib(big), lambda v: _check_mod("fib", v, refs.fib_mod(big))),
        Op("lucas", lambda: numbers.lucas(big), lambda v: _check_mod("lucas", v, refs.lucas_mod(big))),
        Op("wythoff_entry", lambda: wythoff.wythoff_entry(row, big),
           lambda v: _check_mod("w[F(m)][j]", v, (refs.fib_mod(m + big) + refs.fib_mod(big)) % refs.P)),
        Op("min_abs_cost", lambda: theorems.min_abs_cost(mid),
           lambda v: _check_mod("abs cost", v, refs.abs_cost_mod(mid))),
        Op("min_k_cost", lambda: theorems.min_k_cost(mid, k_cost),
           lambda v: _check_mod("k cost", v, refs.k_cost_mod(mid, k_cost))),
        Op("corollary_sequences", lambda: theorems.corollary_sequences(seq_n),
           lambda v: _check_seq_mod(v[0], lucas_form()) or
           _check_seq_mod(v[1], [1] + _fib_mods(1, seq_n))),
        Op("min_k_sequence_fib_form", lambda: theorems.min_k_sequence_fib_form(seq_n, k_seq),
           lambda v: _check_seq_mod(v, fib_form_seq())),
    ]
    inputs = {"fib_lucas_index": big, "wythoff_entry": {"row": f"F({m})", "column": big},
              "cost_n": mid, "cost_k": k_cost, "sequence_n": seq_n, "sequence_k": k_seq}
    return ops, inputs


def big_inputs(seed, tiny=False):
    """A few huge calls: deep traces and trees, and Fibonacci-scale numbers.

    The two halves touch disjoint layers (huffman.* against numbers,
    wythoff and theorems), so sharing one workload loses no per-layer
    separation, and each half is about half of a pass.
    """
    rng = random.Random(seed)
    trace_ops, trace_inputs = _trace_ops(rng, tiny)
    number_ops, number_inputs = _number_ops(rng, tiny)
    return Workload(trace_ops + number_ops, {"trace": trace_inputs, "numbers": number_inputs},
                    tail_pct=96)


# ------------------------------------------------------------------------- cli

class CliRunner:
    """Runs one CLI command in a fresh interpreter, traced when a tracer is set."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.tracer = None

    def __call__(self, argv, mismatch_code=None):
        code = CLI_MAIN if self.tracer is None else CLI_TRACED
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
        err = proc.stderr
        if self.tracer is not None:
            err, snap = tracer.split_child_stderr(err)
            child_s = 0.0
            if snap is not None:
                self.tracer.merge(snap)
                child_s = snap["top_s"]
            cli = self.tracer.layers["cli"]
            cli.calls += 1
            cli.self_s += wall - child_s
            cli.failed += proc.returncode != 0
        if proc.returncode not in (0, mismatch_code):
            last = err.strip().splitlines()[-1:] or [""]
            raise OpError(f"exit {proc.returncode}: {last[0][:200]}")
        return proc.returncode, proc.stdout

    def wall(self, code):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                             capture_output=True, text=True, check=True).stdout
        return time.perf_counter() - t0, out


def _check_rows(rows, total):
    for i, row in enumerate(rows):
        if sum(int(w.rstrip("*")) for w in row.split()) != total:
            return f"row {i} does not sum to the total"
    return None


def cli(seed, tiny=False):
    """Each command in a fresh interpreter, as a user runs it."""
    rng = random.Random(seed)
    run = CliRunner()
    n = 40 if tiny else 400
    k_w = rng.randint(1, 5)
    weights = refs.k_minimizer(n, k_w)
    wtext = ",".join(map(str, weights))
    total = sum(weights)

    def merged():
        return refs.huffman_reference(weights)[0]
    n_seq = rng.randint(30, 40)
    k_seq = rng.randint(0, n_seq - 3)
    n_cost, k_cost = 10_000 + rng.randrange(100), rng.randint(0, 50)
    m_row = rng.randint(10, 20)
    k_cls = rng.randint(0, 27)
    k_ver = rng.randint(0, 2)
    n_fib = 21_000 + rng.randrange(100)        # F(n) has more than 4300 digits

    def c_selftest(v):
        lines = v[1].splitlines()
        return _first_wrong([("exit", v[0], 0), ("summary", lines[-1:], ["selftest: ok"]),
                             ("examples ok", sum(": ok," in ln for ln in lines), 5)])

    def c_minseq(v):
        want = refs.k_minimizer(n_seq, k_seq)
        f = refs.fib_list(n_seq + 3)
        want_cost = f[n_seq + 3] + f[n_seq - k_seq + 1] - (n_seq - k_seq + 3)
        return _first_wrong([("output", v[1].splitlines(),
                              [",".join(map(str, want)), f"cost {want_cost}"])])

    def c_cost(v):
        return _first_wrong([("cost mod P", refs.int_mod(v[1]), refs.k_cost_mod(n_cost, k_cost))])

    def c_wythoff(v):
        got = [refs.int_mod(x) for x in v[1].split()]
        f_row = refs.fib_list(m_row)[m_row]
        want = [(refs.fib_mod(m_row + j) + refs.fib_mod(j)) % refs.P for j in range(2, 62)]
        return _first_wrong([(f"row {f_row}", got, want)])

    def c_classify(v):
        return _first_wrong([("class", v[1].strip(), f"{k_cls}-ordered")])

    def c_verify(v):
        doc = json.loads(v[1])
        seq = refs.k_minimizer(5, k_ver)
        bound = max(seq) + 2
        return _first_wrong([
            ("exit", v[0], 0), ("matches", doc["matches_closed_form"], True),
            ("best cost", int(doc["best_cost"]) % refs.P, refs.k_cost_mod(5, k_ver)),
            ("closed form", [int(w) for w in doc["closed_form_sequence"]], list(seq)),
            ("candidates", doc["candidates_examined"], math.comb(5 + bound - 1, 5)),
        ])

    def c_json(v):
        doc = json.loads(v[1])
        return _first_wrong([
            ("initial", [int(w) for w in doc["initial"]], list(weights)),
            ("merged", [int(s["merged"]) for s in doc["steps"]], merged()),
            ("total", int(doc["total"]), total),
        ])

    def c_csv(v):
        lines = v[1].splitlines()
        body = [ln.split(",") for ln in lines[1:]]
        return _first_wrong([
            ("header", lines[0], "step,merged,pos,weights"),
            ("merged", [int(r[1]) for r in body[1:]], merged()),
        ]) or _check_rows([r[3] for r in body], total)

    def c_table(v):
        lines = v[1].splitlines()
        rows = [ln.partition(" | ")[2] for ln in lines[1:]]
        return _first_wrong([
            ("header", lines[0], "step | sequence"),
            ("rows", len(rows), n),
            ("last row", lines[-1], f"{n - 1:>4} | {total}"),
            ("markers", [r.count("*") for r in rows[1:-1]], [1] * (n - 2)),
        ]) or _check_rows(rows, total)

    def c_tree(v):
        lines = v[1].splitlines()
        tree, book = lines[:2 * n - 1], [ln.split() for ln in lines[2 * n - 1:]]
        return _first_wrong([
            ("root", tree[0], f"+ {total}"),
            ("leaves", sum(ln.lstrip().startswith("-") for ln in tree), n),
            ("codebook size", len(book), n),
            ("wepl is the sum of merged values",
             sum(int(w) * len(c) for _, w, c in book), sum(merged())),
            ("depth profile", sorted((len(c) for _, _, c in book), reverse=True),
             refs.elongated_profile(n)),
        ])

    def c_fib(v):
        return _first_wrong([("fib mod P", refs.int_mod(v[1]), refs.fib_mod(n_fib))])

    cls_text = ",".join(map(str, refs.k_minimizer(30, k_cls)))
    commands = [
        ("selftest", ["selftest"], c_selftest, 2),
        ("minseq", ["minseq", "--n", str(n_seq), "--k", str(k_seq)], c_minseq, None),
        ("cost", ["cost", "--n", str(n_cost), "--k", str(k_cost)], c_cost, None),
        ("wythoff", ["wythoff", "--row", str(refs.fib_list(m_row)[m_row]), "--cols", "60"],
         c_wythoff, None),
        ("classify", ["classify", "--weights", cls_text], c_classify, None),
        ("verify", ["verify", "--n", "5", "--k", str(k_ver)], c_verify, 2),
        ("huffman-json", ["huffman", "--weights", wtext, "--trace", "--format", "json"], c_json, None),
        ("huffman-csv", ["huffman", "--weights", wtext, "--trace", "--format", "csv"], c_csv, None),
        ("huffman-table", ["huffman", "--weights", wtext, "--trace", "--format", "table"],
         c_table, None),
        ("huffman-tree", ["huffman", "--weights", wtext, "--tree", "--codebook"], c_tree, None),
        ("fib", ["fib", "--n", str(n_fib)], c_fib, None),
    ]
    ops = [Op(label, lambda a=argv, m=mis: run(a, m), check) for label, argv, check, mis in commands]
    inputs = {
        "python": [sys.executable, "-c", CLI_MAIN], "PYTHONPATH": "src",
        "huffman_weights": {"n": n, "form": f"k={k_w} minimizer", "max_digits": len(str(weights[-1]))},
        "commands": {label: ["<weights>" if a in (wtext, cls_text) else a for a in argv]
                     for label, argv, _, _ in commands},
    }
    return Workload(ops, inputs, tail_pct=94, runner=run)


WORKLOADS = {
    "oracle-sweep": oracle_sweep,
    "big-inputs": big_inputs,
    "cli": cli,
}
