"""In-memory spans around the calls between csicalib modules.

A traced run patches the public functions the modules call across layers
(for example ``csicalib.quality.calibrate`` or ``csicalib.cli.run_sweep``)
with wrappers that record a span: name, start, end, parent span and
iteration id, plus a few counts taken from the arguments and the result.
The spans stay in memory until the run ends.  ``layer_metrics`` turns them
into per-layer self times and counts; a span's self time is its duration
minus the part of it that its child spans cover, so the self times of one
iteration add up to the iteration's wall time.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int | None
    attrs: dict = field(default_factory=dict)


def _count_frames(data: bytes) -> int:
    """Frames in a binary trace, by walking the 2-byte length headers."""
    n = off = 0
    while off + 2 <= len(data):
        off += 2 + int.from_bytes(data[off:off + 2], "big")
        n += 1
    return n


def _binary_in(args, result):
    data = args[0]
    return {"records": len(result), "bytes": len(data),
            "skipped": _count_frames(data) - len(result)}


def _text_in(args, result):
    return {"records": len(result), "bytes": len(args[0])}


def _bytes_out(args, result):
    return {"bytes": len(result)}


def _packets(args, result):
    return {"packets": len(result)}


def _verdict(args, result):
    return {"verdict": result.cls}


def _loop(args, result):
    return {"steps": len(result), "final": result[-1].verdict.cls}


# Function name as the csicalib modules import it -> (span name, counts).
TRACED = {
    "parse_binary_trace": ("ingest.parse_binary", _binary_in),
    "encode_binary_trace": ("ingest.encode_binary", _bytes_out),
    "parse_text_trace": ("ingest.parse_text", _text_in),
    "write_text_trace": ("ingest.write_text", _bytes_out),
    "calibrate": ("powercalib.calibrate", None),
    "check_ratio_consistency": ("powercalib.ratio_check", None),
    "frames_to_csv": ("powercalib.frames_to_csv", _bytes_out),
    "differential_series": ("phase.differential_series", None),
    "circular_stats": ("phase.circular_stats", None),
    "series_to_csv": ("phase.series_to_csv", _bytes_out),
    "variation_stats": ("quality.variation_stats", None),
    "classify": ("quality.classify", _verdict),
    "classify_losses": ("quality.classify", None),
    "stats_to_csv": ("quality.stats_to_csv", _bytes_out),
    "simulate_capture": ("chipsim.simulate_capture", _packets),
    "run_sweep": ("chipsim.run_sweep", None),
    "closed_loop": ("autocontrol.closed_loop", _loop),
    "recommend": ("autocontrol.recommend", None),
    "line_chart": ("svgchart.line_chart", _bytes_out),
}

COMMANDS = ("parse", "calibrate", "analyze", "simulate", "sweep", "control")


class Tracer:
    """Collects spans for one process; ``install`` patches csicalib."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), name, perf_counter(), 0.0,
                  self._stack[-1] if self._stack else None, self.iteration)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counts):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counts is not None:
                sp.attrs.update(counts(args, result))
            return result

        traced.traced_span = name
        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded csicalib module.

        Raises LookupError, after undoing the patches, if no module has some
        traced name: its layer would read 0 while its time moved to the
        caller.
        """
        wrappers = {}
        found = set()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("csicalib.")]
        for module in modules:
            for fname, (span_name, counts) in TRACED.items():
                fn = getattr(module, fname, None)
                if not callable(fn) or hasattr(fn, "traced_span"):
                    continue
                found.add(fname)
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, span_name, counts)
                self._patched.append((module, fname, fn))
                setattr(module, fname, wrappers[fn])
        missing = sorted(set(TRACED) - found)
        if missing:
            self.uninstall()
            raise LookupError(f"no csicalib module has {', '.join(missing)}; "
                              "update TRACED in perfbench/tracer.py")

    def uninstall(self) -> None:
        for module, fname, fn in reversed(self._patched):
            setattr(module, fname, fn)
        self._patched.clear()

    def adopt(self, spans: list[dict], parent: Span) -> None:
        """Merge spans recorded by a child process under ``parent``.

        perf_counter reads CLOCK_MONOTONIC on Linux, which every process on
        the machine shares, so child timestamps need no shift.
        """
        base = len(self.spans)
        for s in spans:
            self.spans.append(Span(
                base + s["id"], s["name"], s["start"], s["end"],
                parent.id if s["parent"] is None else base + s["parent"],
                parent.iteration, s["attrs"]))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _self_metric(name: str) -> str:
    layer = name.partition(".")[0]
    if layer in ("cli", "proc", "bench"):
        return f"{layer}.self_s"
    return f"{name}_s"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], names: list[str]) -> dict[str, float]:
    """Per-iteration layer metrics from the spans of the traced iterations.

    ``names`` lists every metric to report; layers that did not run read 0.
    Self times and counts are means per iteration, so the self times add up
    to ``trace.iter_s``, the mean wall time of a traced iteration.
    """
    roots = [s for s in spans if s.name == "bench.iteration"]
    n_iter = len(roots)
    own = self_times(spans)
    total = defaultdict(float)
    wall = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[_self_metric(s.name)] += own[s.id]
        wall[s.name] += s.end - s.start
        calls[s.name] += 1
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)):
                total[f"{s.name}:{key}"] += value
        if "verdict" in s.attrs:
            total["verdicts"] += 1
            total["verdict:Reliable"] += s.attrs["verdict"] == "Reliable"
        if "final" in s.attrs:
            total["loop:Reliable"] += s.attrs["final"] == "Reliable"

    self_keys = {_self_metric(s.name) for s in spans}
    m = {name: 0.0 for name in names}
    m.update({k: total[k] / n_iter for k in self_keys})
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = wall[f"cli.{cmd}"] / n_iter
    for name in ("powercalib.calibrate", "powercalib.ratio_check",
                 "phase.differential_series", "phase.circular_stats"):
        m[f"{name}_calls"] = calls[name] / n_iter
    m["ingest.records"] = (total["ingest.parse_binary:records"]
                           + total["ingest.parse_text:records"]) / n_iter
    m["ingest.frames_skipped"] = total["ingest.parse_binary:skipped"] / n_iter
    binary_b = total["ingest.parse_binary:bytes"] + total["ingest.encode_binary:bytes"]
    text_b = total["ingest.parse_text:bytes"] + total["ingest.write_text:bytes"]
    m["ingest.binary_mb_per_s"] = _ratio(
        binary_b / 1e6, total["ingest.parse_binary_s"] + total["ingest.encode_binary_s"])
    m["ingest.text_mb_per_s"] = _ratio(
        text_b / 1e6, total["ingest.parse_text_s"] + total["ingest.write_text_s"])
    m["powercalib.csv_mb"] = total["powercalib.frames_to_csv:bytes"] / 1e6 / n_iter
    m["phase.csv_mb"] = total["phase.series_to_csv:bytes"] / 1e6 / n_iter
    m["svgchart.svg_kb"] = total["svgchart.line_chart:bytes"] / 1e3 / n_iter
    m["quality.verdicts"] = total["verdicts"] / n_iter
    m["quality.reliable_frac"] = _ratio(total["verdict:Reliable"], total["verdicts"])
    m["chipsim.packets_simulated"] = total["chipsim.simulate_capture:packets"] / n_iter
    loops = calls["autocontrol.closed_loop"]
    m["autocontrol.loop_iterations"] = total["autocontrol.closed_loop:steps"] / n_iter
    m["autocontrol.reliable_frac"] = _ratio(total["loop:Reliable"], loops)
    m["trace.iter_s"] = sum(s.end - s.start for s in roots) / n_iter
    m["trace.iterations"] = n_iter
    m["trace.accounted_frac"] = _ratio(sum(m[k] for k in self_keys), m["trace.iter_s"])
    return m
