"""Outside-in span tracing of the langaug layers, installed from the benchmark.

``LayerTracer.install()`` wraps every public function defined in one of the
layer modules and rebinds the wrapper wherever a langaug module namespace
holds the original. The modules bind names with ``from .x import y``, so
patching only the defining module would miss most calls. ``uninstall()``
puts the originals back. Nothing under ``src/`` is modified on disk.

Spans are aggregated in memory per name into plain counters: ``calls`` and
``self_s`` (span time minus the time covered by child spans). A few layers
also record work counts at the same boundary (chain steps, CD iterations,
bytes, convolution shapes).
"""
from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("numerics", "ldtn", "synth", "nets", "energy", "langevin", "cdtrain",
          "pipeline", "theory", "segmenter")

def _conv_stride(args, kwargs):
    return int(kwargs["stride"] if "stride" in kwargs else args[3])


def conv_cost(direction, stride, n, c_in, c_out, h, w):
    """Computed (flop, bytes) of one 3x3, pad-1 float64 convolution call.

    Flop counts a multiply-add as two. Bytes assume every operand is read
    once and every result written once (no cache model): forward reads x,
    weights and bias and writes the padded copy and y; backward reads dy, the
    padded input and weights and writes dx (padded), dw and db.
    """
    ho = (h + 2 - 3) // stride + 1
    wo = (w + 2 - 3) // stride + 1
    macs = n * c_out * ho * wo * c_in * 9
    padded = n * c_in * (h + 2) * (w + 2)
    weights = c_out * c_in * 9
    if direction == "fwd":
        return 2 * macs, 8 * (n * c_in * h * w + weights + c_out + padded + n * c_out * ho * wo)
    return 4 * macs, 8 * (n * c_out * ho * wo + 2 * padded + 2 * weights + c_out)


class LayerTracer:
    """Wraps the langaug layer functions and aggregates their spans."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.census = defaultdict(lambda: defaultdict(float))
        self.active = defaultdict(int)
        self._stack = []          # one [child_time] cell per open span
        self._patched = []        # (namespace dict, name, original)

    # -- spans -------------------------------------------------------------

    def _open(self, base):
        self.active[base] += 1
        cell = [0.0]
        self._stack.append(cell)
        return cell, time.perf_counter()

    def _close(self, base, name, cell, start):
        duration = time.perf_counter() - start
        self._stack.pop()
        self.active[base] -= 1
        if self._stack:
            self._stack[-1][0] += duration
        self_time = duration - cell[0]
        counts = self.counts
        counts[f"{name}.calls"] += 1
        counts[f"{name}.self_s"] += self_time
        return self_time

    def exclude(self, seconds):
        """Count time spent outside the program (a speed probe) as a child."""
        if self._stack:
            self._stack[-1][0] += seconds

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (one CLI stage call)."""
        cell, start = self._open(name)
        try:
            yield
        finally:
            self._close(name, name, cell, start)

    def _wrap(self, base, fn):
        tracer = self
        label = _LABELS.get(base)
        hook = _HOOKS.get(base)

        def traced(*args, **kwargs):
            name = label(args, kwargs) if label else base
            cell, start = tracer._open(base)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self_time = tracer._close(base, name, cell, start)
                if hook:
                    hook(tracer, args, kwargs, result, exc, self_time)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall -------------------------------------------------

    def install(self):
        if self._patched:
            return
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"langaug.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "langaug" or mod_name.startswith("langaug.")):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and obj is wrapper.__wrapped__:
                    self._patched.append((namespace, attr, obj))
                    namespace[attr] = wrapper

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patched)


# -- per-function span labels and work counters --------------------------------

def _conv_label(base):
    return lambda args, kwargs: f"{base}.s{_conv_stride(args, kwargs)}"


def _conv_hook(direction):
    def hook(tracer, args, kwargs, result, exc, self_time):
        stride = _conv_stride(args, kwargs)
        if direction == "fwd":
            n, c_in, h, w = args[0].shape
            c_out = args[1].shape[0]
            if stride == 2 and tracer.active["cdtrain.train_ebm"]:
                tracer.counts["cdtrain.conv_forward_layers"] += 1
        else:
            n, c_in, hp, wp = args[1].shape
            h, w = hp - 2, wp - 2
            c_out = args[2].shape[0]
        flop, nbytes = conv_cost(direction, stride, n, c_in, c_out, h, w)
        tracer.counts[f"nets.conv.s{stride}.flop"] += flop
        row = tracer.census[(direction, stride, n, c_in, c_out, h)]
        row["calls"] += 1
        row["self_s"] += self_time
        row["flop"] += flop
        row["bytes"] += nbytes
    return hook


def _chain_hook(tracer, args, kwargs, result, exc, self_time):
    x0 = args[0]
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    tracer.counts["langevin.chain_steps"] += x0.shape[0] * config.n_steps
    if exc is not None and type(exc).__name__ == "DivergenceError":
        tracer.counts["langevin.diverged"] += 1


def _train_ebm_hook(tracer, args, kwargs, result, exc, self_time):
    arch = kwargs.get("arch", args[2] if len(args) > 2 else None)
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    tracer.counts["cdtrain.iters"] += config.n_iters
    tracer.counts["cdtrain.iter_layers"] += config.n_iters * arch.conv_blocks


def _augmented_hook(tracer, args, kwargs, result, exc, self_time):
    if result is None:
        return
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    per_chain = len(config.stored_steps())
    tracer.counts["pipeline.entries"] += len(result)
    tracer.counts["pipeline.chains_kept"] += len(result) / per_chain if per_chain else 0
    tracer.counts["pipeline.chains_skipped"] += result.skipped_chains


def _adam_hook(tracer, args, kwargs, result, exc, self_time):
    if tracer.active["segmenter.train_segmenter"]:
        tracer.counts["segmenter.steps"] += 1


def _tensor_bytes_hook(name):
    def hook(tracer, args, kwargs, result, exc, self_time):
        path = kwargs.get("path", args[0] if args else None)
        if exc is None and path is not None:
            tracer.counts[f"{name}.bytes"] += os.path.getsize(path)
    return hook


_LABELS = {
    "nets.conv2d_forward": _conv_label("nets.conv2d_forward"),
    "nets.conv2d_backward": _conv_label("nets.conv2d_backward"),
}

_HOOKS = {
    "nets.conv2d_forward": _conv_hook("fwd"),
    "nets.conv2d_backward": _conv_hook("bwd"),
    "langevin.run_chain_batch": _chain_hook,
    "cdtrain.train_ebm": _train_ebm_hook,
    "pipeline.generate_augmented": _augmented_hook,
    "numerics.adam_step": _adam_hook,
    "ldtn.write_tensor": _tensor_bytes_hook("ldtn.write_tensor"),
    "ldtn.read_tensor": _tensor_bytes_hook("ldtn.read_tensor"),
}


def combine(setup, total, n_reps):
    """Counters for one set-up plus the mean of ``n_reps`` repetitions."""
    keys = set(setup) | set(total)
    return {k: setup.get(k, 0.0) + (total.get(k, 0.0) - setup.get(k, 0.0)) / n_reps
            for k in keys}


def layer_metrics(names, c, extra):
    """Values of the per-layer metrics ``names`` from combined counters ``c``.

    A metric is the counter of the same name (0 when its layer never ran),
    unless it is derived here from several counters or given in ``extra``.
    """
    g = lambda key: float(c.get(key, 0.0))  # noqa: E731
    derived = dict(extra)
    for s in (1, 2):
        gflop = g(f"nets.conv.s{s}.flop") / 1e9
        busy = g(f"nets.conv2d_forward.s{s}.self_s") + g(f"nets.conv2d_backward.s{s}.self_s")
        derived[f"nets.conv.s{s}.gflop"] = gflop
        derived[f"nets.conv.s{s}.gflop_per_s"] = gflop / busy if busy > 0 else 0.0
    layers = g("cdtrain.iter_layers")
    derived["cdtrain.energy_passes_per_iter"] = (g("cdtrain.conv_forward_layers") / layers
                                                 if layers else 0.0)
    chains = g("pipeline.chains_kept") + g("pipeline.chains_skipped")
    derived["pipeline.chains_kept_frac"] = g("pipeline.chains_kept") / chains if chains else 0.0
    return {name: derived[name] if name in derived else g(name) for name in names}


def census_rows(census, n_reps, setup_census):
    """Census rows per (direction, stride, N, C_in, C_out, H), per set-up + repetition."""
    rows = []
    for key in sorted(census):
        total = census[key]
        base = setup_census.get(key, {})
        row = {f: base.get(f, 0.0) + (total[f] - base.get(f, 0.0)) / n_reps
               for f in ("calls", "self_s", "flop", "bytes")}
        direction, stride, n, c_in, c_out, h = key
        rows.append({"direction": direction, "stride": stride, "n": n, "c_in": c_in,
                     "c_out": c_out, "h": h, "calls": row["calls"], "self_s": row["self_s"],
                     "computed_gflop": row["flop"] / 1e9,
                     "computed_mbytes": row["bytes"] / 1e6})
    return rows
