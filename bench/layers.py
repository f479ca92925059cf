"""Per-layer trace for the traced round: wrappers around each winoref
module's public functions, installed from outside and removed afterwards.

Each wrapper is installed where its caller looks the function up: ``refine``
binds ``encode``, ``encode_batch``, ``windowed_bertscore`` and ``tokenize``
at import, ``evaluate`` binds ``mlm_logits_batch``, and the tensor ops are
reached as attributes of ``winoref.tensor`` (by other modules and by the
ops themselves). Modules come from ``importlib`` because the package
re-exports functions under the module names (``winoref.refine`` is the
function, not the module).
"""

import collections
import contextlib
import importlib
import statistics
import time
import tracemalloc

import numpy as np

import hostspeed

tensor = importlib.import_module("winoref.tensor")
encoder = importlib.import_module("winoref.encoder")
refine_mod = importlib.import_module("winoref.refine")
scoring = importlib.import_module("winoref.scoring")
evaluate_mod = importlib.import_module("winoref.evaluate")
optim = importlib.import_module("winoref.optim")
text = importlib.import_module("winoref.text")
checkpoint = importlib.import_module("winoref.checkpoint")

PRETRAIN_OPS = ["matmul", "add", "take", "embedding_lookup", "softmax",
                "layer_norm", "gelu", "cross_entropy"]
REFINE_OPS = ["matmul", "add", "take", "embedding_lookup", "softmax",
              "layer_norm", "gelu", "tmax", "l2_normalize"]
TRACED_OPS = sorted(set(PRETRAIN_OPS) | set(REFINE_OPS))
SCATTER_OPS = ("take", "embedding_lookup")   # backward allocates a full buffer

# (phase, span) pairs that must record calls, or the trace missed a caller
EXPECTED = {
    "setup": ["text.load_perturbation_corpus", "text.load_benchmark",
              "checkpoint.load"],
    "pretrain": ["encoder.forward_hidden", "encoder.mlm_logits_batch",
                 "encoder.apply_mlm_masking", "tensor.backward", "optim.step"]
                + [f"tensor.{op}" for op in PRETRAIN_OPS],
    "refine": ["encoder.forward_hidden", "encoder.encode_batch", "encoder.encode",
               "scoring.windowed_bertscore", "refine.reconstruction_loss",
               "refine.contrastive_loss", "refine.diversity_loss",
               "refine.discriminator", "text.tokenize", "tensor.backward",
               "optim.step"] + [f"tensor.{op}" for op in REFINE_OPS],
    "eval": ["encoder.forward_hidden", "encoder.mlm_logits_batch",
             "evaluate.score_candidate"],
    "checkpoint": ["checkpoint.save"],
}

MEMORY_PHASES = ("pretrain", "refine", "eval")
# tracemalloc triples the run time, so it runs only inside one probe window
# per phase: the second optimizer step, or the first instance of eval. Spans
# inside a window are kept apart from the phase's.
PROBE = "probe"


def _tape_nodes(loss):
    """Interior nodes reachable from ``loss`` that backward will visit."""
    seen = {id(loss)}
    stack = [loss]
    nodes = 0
    while stack:
        node = stack.pop()
        nodes += node._backward_fn is not None
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


class Tracer:
    """Spans and counts per (phase, name), kept in memory until the end."""

    def __init__(self):
        self.phase = "setup"
        self.spans = collections.defaultdict(lambda: [0, 0.0])  # calls, seconds
        self.counts = collections.defaultdict(float)
        self.peak_mb = {}
        self.probe_s = 0.0        # wall time spent inside probe windows
        self._probe = None        # (phase, start) while a window is open
        self._steps = collections.Counter()
        self._saved = []

    def mark(self, phase):
        """Start attributing calls to ``phase``."""
        self.phase = phase

    def _open_probe(self):
        self._probe = (self.phase, time.perf_counter())
        self.phase = PROBE
        tracemalloc.start()

    def _close_probe(self):
        phase, t0 = self._probe
        self.peak_mb[phase] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        self.probe_s += time.perf_counter() - t0
        self.phase, self._probe = phase, None

    def _span(self, name, fn, count=None):
        """Wrap ``fn`` to time each call; ``count(args, result)`` may add
        to ``self.counts`` under the same phase."""
        spans, counts = self.spans, self.counts

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            span = spans[(self.phase, name)]
            span[0] += 1
            span[1] += elapsed
            if count is not None:
                for key, value in count(args, result):
                    counts[(self.phase, key)] += value
            return result

        return wrapper

    def _op(self, op, fn):
        """Wrap a tensor op: forward time, plus backward time of the node it
        returns, plus the scatter buffer its backward allocates."""
        spans, counts = self.spans, self.counts
        scatter = op in SCATTER_OPS

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            phase = self.phase
            span = spans[(phase, f"tensor.{op}")]
            span[0] += 1
            span[1] += elapsed
            bw = out._backward_fn
            if bw is not None:
                nbytes = args[0].data.nbytes if scatter else 0

                def timed_bw(g):
                    t = time.perf_counter()
                    bw(g)
                    span = spans[(phase, f"tensor.{op}.bwd")]
                    span[0] += 1
                    span[1] += time.perf_counter() - t
                    if nbytes:
                        counts[(phase, f"tensor.{op}.bwd_bytes")] += nbytes

                out._backward_fn = timed_bw
            return out

        return wrapper

    def _backward(self, fn):
        spans, counts = self.spans, self.counts

        def wrapper(loss):
            counts[(self.phase, "tensor.nodes")] += _tape_nodes(loss)
            t0 = time.perf_counter()
            fn(loss)
            span = spans[(self.phase, "tensor.backward")]
            span[0] += 1
            span[1] += time.perf_counter() - t0

        return wrapper

    def _probing_step(self, step):
        """Open the probe window after a phase's first step, close it after
        the second."""
        def wrapper(opt):
            step(opt)
            if self._probe is not None:
                self._close_probe()
            elif self.phase in MEMORY_PHASES:
                self._steps[self.phase] += 1
                if self._steps[self.phase] == 1:
                    self._open_probe()

        return wrapper

    def _probing_candidate(self, score):
        """Probe the first instance of eval: its two candidate scores."""
        def wrapper(model, vocab, instance, which):
            if self.phase == "eval" and "eval" not in self.peak_mb and self._probe is None:
                self._open_probe()
            result = score(model, vocab, instance, which)
            if self._probe is not None and self._probe[0] == "eval" and which == 2:
                self._close_probe()
            return result

        return wrapper

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _install(self):
        fh = encoder.forward_hidden
        self._patch(encoder, "forward_hidden", self._span(
            "encoder.forward_hidden", fh, lambda a, r: [
                ("encoder.rows", a[1].shape[0]),
                ("encoder.row_slots", a[1].shape[0] * a[1].shape[1]),
                ("encoder.nonpad_rows", int(np.count_nonzero(a[2])))]))
        head = self._span("encoder.mlm_logits_batch", encoder.mlm_logits_batch,
                          lambda a, r: [("encoder.head_rows",
                                         r.data.shape[0] * r.data.shape[1])])
        self._patch(encoder, "mlm_logits_batch", head)
        self._patch(evaluate_mod, "mlm_logits_batch", head)
        self._patch(encoder, "apply_mlm_masking", self._span(
            "encoder.apply_mlm_masking", encoder.apply_mlm_masking,
            lambda a, r: [("encoder.masked_rows", r[1].size)]))
        self._patch(refine_mod, "encode_batch", self._span(
            "encoder.encode_batch", refine_mod.encode_batch,
            lambda a, r: [("refine.target_lookups", len(a[1]))]))
        self._patch(refine_mod, "encode", self._span("encoder.encode", refine_mod.encode))
        score = self._span("scoring.windowed_bertscore", scoring.windowed_bertscore)
        self._patch(refine_mod, "windowed_bertscore", score)
        self._patch(scoring, "windowed_bertscore", score)
        for term in ("reconstruction_loss", "contrastive_loss", "diversity_loss"):
            self._patch(refine_mod, term, self._span(f"refine.{term}",
                                                     getattr(refine_mod, term)))
        self._patch(refine_mod.Discriminator, "forward", self._span(
            "refine.discriminator", refine_mod.Discriminator.forward))
        self._patch(refine_mod, "tokenize", self._span("text.tokenize",
                                                       refine_mod.tokenize))
        self._patch(optim.AdamW, "step", self._probing_step(self._span(
            "optim.step", optim.AdamW.step,
            lambda a, r: [("optim.params_updated",
                           sum(p.data.size for _, p in a[0].params))])))
        self._patch(evaluate_mod, "score_candidate", self._probing_candidate(
            self._span("evaluate.score_candidate", evaluate_mod.score_candidate)))
        for fn in ("load_perturbation_corpus", "load_benchmark"):
            self._patch(text, fn, self._span(f"text.{fn}", getattr(text, fn)))
        for fn in ("save", "load"):
            self._patch(checkpoint, fn, self._span(f"checkpoint.{fn}",
                                                   getattr(checkpoint, fn)))
        for op in TRACED_OPS:
            self._patch(tensor, op, self._op(op, getattr(tensor, op)))
        self._patch(tensor, "backward", self._backward(tensor.backward))

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrappers installed inside the block, originals restored after."""
        self._install()
        originals = list(self._saved)
        try:
            yield self
        finally:
            tracemalloc.stop()
            self._restore()
            left = [attr for module, attr, fn in originals
                    if getattr(module, attr) is not fn]
            if left:
                raise RuntimeError(f"trace wrappers left installed: {left}")

    def missing(self):
        """Expected (phase, span) pairs that recorded no call."""
        return [f"{phase}:{name}" for phase, names in EXPECTED.items()
                for name in names if self.spans[(phase, name)][0] == 0]

    # -- metrics -------------------------------------------------------------

    def metrics(self, traced, untraced):
        """Per-layer metrics from the traced round's samples and spans; the
        probe windows count in none of them. ``untraced`` are the rounds run
        without wrappers, for the overhead. Times are calibrated by the
        round's median host-speed kernel time, as the end-to-end ones are."""
        steps = {p: max(1, len(traced["step_s"].get(p, [])) - 1) for p in ("pretrain", "refine")}
        instances = max(1, sum(n for n, _ in traced.get("eval_calls", [])) - 1)
        spans, counts = self.spans, self.counts
        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        speed = hostspeed.REFERENCE_KERNEL_S / traced["wall_kernel_s"]

        def ms(phase, span):
            return spans[(phase, span)][1] * 1e3 * speed

        def calls(phase, span):
            return spans[(phase, span)][0]

        def ratio(num, den):
            return num / den if den else 0.0

        # encoder
        for phase in ("pretrain", "refine"):
            put(f"{phase}.encoder.forward_hidden.ms_per_step",
                ms(phase, "encoder.forward_hidden") / steps[phase], "ms")
        put("eval.encoder.forward_hidden.ms_per_instance",
            ms("eval", "encoder.forward_hidden") / instances, "ms")
        put("pretrain.encoder.mlm_head.ms_per_step",
            (ms("pretrain", "encoder.mlm_logits_batch")
             - ms("pretrain", "encoder.forward_hidden")) / steps["pretrain"], "ms")
        put("pretrain.encoder.mlm_head.useful_row_ratio",
            ratio(counts[("pretrain", "encoder.masked_rows")],
                  counts[("pretrain", "encoder.head_rows")]), "ratio")
        for phase in ("pretrain", "eval"):
            put(f"{phase}.encoder.nonpad_row_ratio",
                ratio(counts[(phase, "encoder.nonpad_rows")],
                      counts[(phase, "encoder.row_slots")]), "ratio")
        put("eval.encoder.forward_hidden.calls_per_instance",
            calls("eval", "encoder.forward_hidden") / instances, "count")
        put("eval.encoder.forward_hidden.rows_per_call",
            ratio(counts[("eval", "encoder.rows")],
                  calls("eval", "encoder.forward_hidden")), "count")
        put("refine.encoder.encode_batch.ms_per_step",
            ms("refine", "encoder.encode_batch") / steps["refine"], "ms")
        put("refine.encoder.encode.calls_per_step",
            calls("refine", "encoder.encode") / steps["refine"], "count")
        put("refine.encoder.encode.ms_per_step",
            ms("refine", "encoder.encode") / steps["refine"], "ms")

        # tensor
        for phase, ops in (("pretrain", PRETRAIN_OPS), ("refine", REFINE_OPS)):
            n = steps[phase]
            put(f"{phase}.tensor.backward.ms_per_step", ms(phase, "tensor.backward") / n, "ms")
            put(f"{phase}.tensor.nodes_per_step", counts[(phase, "tensor.nodes")] / n, "count")
            for op in ops:
                put(f"{phase}.tensor.{op}.calls_per_step", calls(phase, f"tensor.{op}") / n, "count")
                put(f"{phase}.tensor.{op}.fwd_ms_per_step", ms(phase, f"tensor.{op}") / n, "ms")
                put(f"{phase}.tensor.{op}.bwd_ms_per_step", ms(phase, f"tensor.{op}.bwd") / n, "ms")
            for op in SCATTER_OPS:
                put(f"{phase}.tensor.{op}.bwd_mb_per_step",
                    counts[(phase, f"tensor.{op}.bwd_bytes")] / 2**20 / n, "MB")

        # scoring and refine
        put("refine.scoring.windowed_bertscore.calls_per_step",
            calls("refine", "scoring.windowed_bertscore") / steps["refine"], "count")
        put("refine.scoring.windowed_bertscore.ms_per_step",
            ms("refine", "scoring.windowed_bertscore") / steps["refine"], "ms")
        for term in ("reconstruction_loss", "contrastive_loss", "diversity_loss",
                     "discriminator"):
            put(f"refine.refine.{term}.ms_per_step",
                ms("refine", f"refine.{term}") / steps["refine"], "ms")
        put("refine.targets.hit_ratio",
            1.0 - ratio(calls("refine", "encoder.encode"),
                        counts[("refine", "refine.target_lookups")]), "ratio")

        # optim and evaluate
        for phase in ("pretrain", "refine"):
            put(f"{phase}.optim.adamw_step.ms_per_step", ms(phase, "optim.step") / steps[phase], "ms")
            put(f"{phase}.optim.params_updated",
                ratio(counts[(phase, "optim.params_updated")], calls(phase, "optim.step")), "count")
        put("eval.evaluate.score_candidate.ms_per_instance",
            ms("eval", "evaluate.score_candidate") / instances, "ms")

        # text and checkpoint
        setups = max(len(s) for s in traced["setup_s"].values())
        put("setup.text.load_ms",
            (ms("setup", "text.load_perturbation_corpus")
             + ms("setup", "text.load_benchmark")) / setups, "ms")
        put("refine.text.tokenize.ms_per_step", ms("refine", "text.tokenize") / steps["refine"], "ms")
        put("checkpoint.save_ms", ratio(ms("checkpoint", "checkpoint.save"),
                                        calls("checkpoint", "checkpoint.save")), "ms")
        put("checkpoint.load_ms", ratio(ms("setup", "checkpoint.load"),
                                        calls("setup", "checkpoint.load")), "ms")
        put("checkpoint.mb", traced.get("checkpoint_bytes", 0) / 2**20, "MB")

        # memory and the trace itself
        for phase in MEMORY_PHASES:
            put(f"{phase}.mem.peak_mb", self.peak_mb.get(phase, 0.0), "MB")
        # the same windows, timed on each untraced round: the second step of
        # each phase and one average eval instance; each round calibrated
        # by its median kernel time
        def outside_windows(raw):
            evals = raw["eval_calls"]
            return (raw["wall_s"] - raw["step_s"]["pretrain"][1] - raw["step_s"]["refine"][1]
                    - sum(s for _, s in evals) / sum(n for n, _ in evals)) / raw["wall_kernel_s"]

        put("trace.overhead_ratio", (traced["wall_s"] - self.probe_s) / traced["wall_kernel_s"]
            / statistics.mean(map(outside_windows, untraced)) - 1.0, "ratio")
        return out


def moves(name):
    """The end-to-end metric a per-layer metric should move."""
    phase, layer = name.split(".")[:2]
    if phase == "trace":
        return "-"
    if layer == "mem":
        return "peak_rss_mb"
    if phase in ("setup", "checkpoint"):
        return "setup_s, wall_s"
    if phase == "eval":
        return "eval_instances_per_s"
    if name == "refine.targets.hit_ratio":
        return "refine_step_ms high percentile (cache misses)"
    return f"{phase}_step_ms"


def better(name):
    """Direction of a per-layer metric: more useful work per unit is higher."""
    higher = ("useful_row_ratio", "nonpad_row_ratio", "hit_ratio", "rows_per_call")
    return "higher" if name.endswith(higher) else "lower"
