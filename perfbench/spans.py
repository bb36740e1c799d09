"""Layer spans recorded from outside the package.

A traced run wraps, for its duration, the functions each package module
calls in the layer below it (the ``TARGETS`` table).  Every call of a
wrapped function appends one span (name, operation id, parent span, start,
end, optional counters) to an in-memory list; the list is written once,
when the run ends.  No file of the package is edited: the wrapper replaces
every module attribute that refers to the original function, because
modules import these names directly (``from ._kernels import rank_words``),
and is removed again on exit.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "wiretapcodes"

# (layer, module, attribute): the layer is the module's name, without the
# leading underscore of ``_kernels`` so that it can start a metric name.
TARGETS = (
    ("kernels", "wiretapcodes._kernels", "rank_words"),
    ("bitlinalg", "wiretapcodes.bitlinalg", "rref"),
    ("bitlinalg", "wiretapcodes.bitlinalg", "nullspace_basis"),
    ("bitlinalg", "wiretapcodes.bitlinalg", "right_inverse"),
    ("bitlinalg", "wiretapcodes.bitlinalg", "BitMatrix.transpose"),
    ("bitlinalg", "wiretapcodes.bitlinalg", "mat_vec"),
    ("bitlinalg", "wiretapcodes.bitlinalg", "vec_mat"),
    ("codes", "wiretapcodes.codes", "regular_ldpc"),
    ("codes", "wiretapcodes.codes", "dual"),
    ("codes", "wiretapcodes.codes", "nested_pair_from_coarse"),
    ("codes", "wiretapcodes.codes", "LinearCode.edge_lists"),
    ("channels", "wiretapcodes.channels", "biawgn_transmit"),
    ("channels", "wiretapcodes.channels", "awgn_llr"),
    ("decoders", "wiretapcodes.decoders", "bp_decode_awgn"),
    ("thresholds", "wiretapcodes.thresholds", "bec_bp_threshold"),
    ("thresholds", "wiretapcodes.thresholds", "de_residual"),
    ("thresholds", "wiretapcodes.thresholds", "bp_word_error_rate"),
    ("secrecy", "wiretapcodes.secrecy", "mc_equivocation_bec"),
    ("secrecy", "wiretapcodes.secrecy", "encode"),
    ("secrecy", "wiretapcodes.secrecy", "approach1_equivocation_bound"),
    ("capacity", "wiretapcodes.capacity", "c_biawgn"),
    ("cli", "wiretapcodes.cli", "main"),
)


def _rank_note(args, result):
    words = args[0]
    return {"rows": int(words.shape[0]), "words": int(words.shape[1]), "rank": int(result)}


def _bp_note(args, result):
    return {"ok": bool(result[1])}


# Counters taken at the boundary where the work happens.
NOTES = {"kernels.rank_words": _rank_note, "decoders.bp_decode_awgn": _bp_note}


@dataclass(slots=True)
class Span:
    name: str
    op: object  # operation id: an int for timed operations, "setup-<k>" for set-ups
    parent: int  # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0
    note: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            span = Span(name, self.op, parent, perf_counter())
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_spans.pop()
            if note is not None:
                span.note = note(args, result)
            return result

        return traced


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextmanager
def patched(tracer: Tracer):
    """Install ``tracer``'s wrappers on every target; restore all on exit."""
    undo = []
    try:
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                undo.append((owner, method, original))
                setattr(owner, method, tracer.wrap(name, original, NOTES.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, NOTES.get(name))
            for mod in _package_modules():
                if mod.__dict__.get(attr) is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


# Construction functions: their metrics read per set-up.  Every other
# function's metrics read per timed operation that calls it.
SETUP_LAYERS = frozenset({
    "bitlinalg.rref", "bitlinalg.nullspace_basis", "bitlinalg.right_inverse",
    "bitlinalg.transpose", "codes.regular_ldpc", "codes.dual",
    "codes.nested_pair_from_coarse", "codes.edge_lists",
})


def is_setup(op) -> bool:
    return isinstance(op, str) and op.startswith("setup-")


def per_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``<name>.calls`` and ``<name>.self_s`` are divided by the number of
    operations in which ``<name>`` ran: set-ups for a function in
    ``SETUP_LAYERS``, timed operations for any other.  A function that never
    ran there has no entry.
    """
    by_name: dict[str, list] = defaultdict(list)
    for span, self_s in zip(spans, self_times(spans)):
        if is_setup(span.op) == (span.name in SETUP_LAYERS):
            by_name[span.name].append((span, self_s))

    out: dict[str, float] = {}
    for name, entries in by_name.items():
        n_ops = len({span.op for span, _ in entries})
        out[f"{name}.calls"] = len(entries) / n_ops
        out[f"{name}.self_s"] = sum(self_s for _, self_s in entries) / n_ops

    ranks = [span for span, _ in by_name.get("kernels.rank_words", ())]
    if ranks:
        rows = sum(s.note["rows"] for s in ranks)
        n_ops = len({s.op for s in ranks})
        out["kernels.rank_words.rows_mean"] = rows / len(ranks)
        out["kernels.rank_words.pivot_ratio"] = sum(s.note["rank"] for s in ranks) / rows
        out["kernels.rank_words.bytes_computed"] = (
            sum(s.note["rows"] * s.note["words"] * 8 for s in ranks) / n_ops
        )

    decodes = [span for span, _ in by_name.get("decoders.bp_decode_awgn", ())]
    if decodes:
        ok = [s.duration * 1e3 for s in decodes if s.note["ok"]]
        fail = [s.duration * 1e3 for s in decodes if not s.note["ok"]]
        out["decoders.bp_decode_awgn.ok_ratio"] = len(ok) / len(decodes)
        out["decoders.bp_decode_awgn.ok_p50_ms"] = statistics.median(ok) if ok else 0.0
        out["decoders.bp_decode_awgn.fail_p50_ms"] = statistics.median(fail) if fail else 0.0
    return out


def self_shares(spans: list[Span], total_s: float, ops) -> dict[str, float]:
    """Self time of each span name within ``ops``, as a share of ``total_s``."""
    ops = set(ops)
    shares: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        if span.op in ops:
            shares[span.name] += self_s / total_s
    return dict(shares)
