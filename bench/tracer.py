"""Per-layer spans around the public functions of huffwyth.

The tracer wraps functions from outside: it replaces each public function
with a timing wrapper in every huffwyth module namespace that binds it, so
calls between modules (for example the oracle's own `run_huffman` import)
are attributed too.  Spans stay in memory and are folded into per-layer
totals as they close; a layer's self time is its span time minus the time
of the spans it caused.
"""

import inspect
import json
import sys
import time
import tracemalloc

# Layers named by module; huffman is split by what each function does.
HUFFMAN_LAYERS = {
    "huffman.trace": ("validate_weights", "run_huffman"),
    "huffman.classify": ("classify_trace", "classify_order", "check_elongated_inequality"),
    "huffman.tree": ("build_tree", "leaf_weights", "leaf_depths", "wepl", "codebook",
                     "is_elongated", "is_left_sided"),
    "huffman.json": ("trace_to_json", "trace_from_json"),
}
MODULE_LAYERS = ("numbers", "wythoff", "theorems", "oracle")
LAYERS = ("numbers", "wythoff", "theorems", *HUFFMAN_LAYERS, "oracle", "cli")

CHILD_MARK = "@@bench-layers@@"


class Layer:
    __slots__ = ("calls", "self_s", "failed", "counters", "peak_alloc")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.failed = 0
        self.counters = {}
        self.peak_alloc = 0

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value


def _count_trace(layer, result, dt):
    layer.add("weights", result.size)


def _count_json(layer, result, dt):
    layer.add("bytes", len(result))


def _count_scan(layer, report, dt):
    layer.add("candidates", report.candidates_examined)
    layer.add("members", report.members_examined)
    layer.add("scan_s", dt)


COUNTERS = {
    "run_huffman": _count_trace,
    "trace_to_json": _count_json,
    "brute_force_min": _count_scan,
    "brute_force_min_abs": _count_scan,
}


class Tracer:
    def __init__(self):
        self.layers = {name: Layer() for name in LAYERS}
        self.top_s = 0.0        # time covered by spans with no parent span
        self.measure_alloc = False
        self._stack = []
        self._restore = []

    def wrap(self, layer_name, fn, count=None, alloc=False):
        layer, stack = self.layers[layer_name], self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            base = None
            if alloc and self.measure_alloc:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                layer.failed += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                layer.calls += 1
                layer.self_s += dt - child[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt
            if base is not None:
                layer.peak_alloc = max(layer.peak_alloc, tracemalloc.get_traced_memory()[1] - base)
            if count is not None:
                count(layer, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever a huffwyth module binds it."""
        import huffwyth  # noqa: F401  (imports every layer module)

        mods = [m for name, m in list(sys.modules.items())
                if name == "huffwyth" or name.startswith("huffwyth.")]
        targets = [(layer, "huffwyth.huffman", names) for layer, names in HUFFMAN_LAYERS.items()]
        for layer in MODULE_LAYERS:
            mod = sys.modules["huffwyth." + layer]
            targets.append((layer, mod.__name__,
                            [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]))
        for layer, modname, names in targets:
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                wrapped = self.wrap(layer, fn, COUNTERS.get(name), alloc=(name == "run_huffman"))
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
                            self._restore.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    def snapshot(self):
        return {
            "top_s": self.top_s,
            "layers": {name: {"calls": layer.calls, "self_s": layer.self_s,
                              "failed": layer.failed, "peak_alloc": layer.peak_alloc,
                              **layer.counters}
                       for name, layer in self.layers.items()},
        }

    def merge(self, snap):
        """Add a snapshot taken in another process (a traced CLI child)."""
        for name, data in snap["layers"].items():
            layer = self.layers[name]
            layer.calls += data.pop("calls")
            layer.self_s += data.pop("self_s")
            layer.failed += data.pop("failed")
            layer.peak_alloc = max(layer.peak_alloc, data.pop("peak_alloc"))
            for key, value in data.items():
                layer.add(key, value)


def child_main():
    """Run the CLI under the tracer; the layer snapshot goes to stderr last."""
    import huffwyth.cli

    tracer = Tracer()
    tracer.install()
    try:
        huffwyth.cli.entrypoint()
    finally:
        sys.stderr.write("\n" + CHILD_MARK + json.dumps(tracer.snapshot()) + "\n")
        sys.stderr.flush()


def split_child_stderr(err):
    """Separate a traced child's own stderr from its layer snapshot."""
    text, mark, tail = err.rpartition(CHILD_MARK)
    if not mark:
        return err, None
    return text.rstrip("\n"), json.loads(tail)
