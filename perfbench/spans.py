"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps functions at the module attributes their callers look up
(``kklab.kk.pv_integrate``, ``kklab.causality.roundtrip_residual``,
``kklab.cli.load_spectrum`` and so on), so nothing in the program changes.
Each call becomes one span: (name, start, end, parent span, request id,
value, failed). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

KK_DIRECTIONS = ("re_from_im", "im_from_re", "subtracted", "subtracted_at_infinity")
PVQUAD = ("pvquad.pv_integrate", "pvquad.fit_tail", "pvquad.tail_integral")
# spans a CLI request spends in the program's layers, outside argparse
CLI_LAYERS = ("spectra.load", "spectra.save", "causality.audit", "causality.report_json",
              "scharnhorst") + tuple(f"kk.{d}" for d in KK_DIRECTIONS)

# Per-layer metric names and units, in report order. Times and counts are
# means per attempted request; import times are per process start.
LAYER_METRICS = {
    "import.kklab_s": "s", "import.scipy_integrate_s": "s", "import.scipy_interpolate_s": "s",
    "spectra.load_s": "s", "spectra.save_s": "s", "spectra.bytes_in": "B",
    "spectra.bytes_out": "B", "causality.report_json_s": "s",
    "pvquad.pv_integrate.calls": "count", "pvquad.pv_integrate_s": "s",
    "pvquad.kernel_evals": "count",
    "pvquad.fit_tail.calls": "count", "pvquad.fit_tail_s": "s",
    "pvquad.fit_tail.failures": "count",
    "pvquad.tail_integral.calls": "count", "pvquad.tail_integral_s": "s",
    **{k: u for d in KK_DIRECTIONS for k, u in ((f"kk.{d}.calls", "count"), (f"kk.{d}_s", "s"))},
    "kk.self_s": "s",
    "causality.audit.calls": "count", "causality.audit_s": "s",
    "causality.asymptote_s": "s", "causality.amplification_s": "s",
    "causality.bounded_s": "s", "causality.roundtrip_s": "s",
    "causality.audit.failures": "count",
    "scharnhorst.calls": "count", "scharnhorst_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


class SpanRecorder:
    """Collects spans of wrapped calls in one process."""

    def __init__(self):
        self.spans: list = []
        self.request = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, value=None):
        """``fn`` recorded as span ``name``; ``value(args, result)`` gives the
        span's numeric attribute (node count, bytes)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            failed, result = True, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                v = value(args, result) if value is not None and not failed else 0
                spans[idx] = (name, t0, t1, parent, self.request, v, failed)

        return traced

    def install(self, owner, attr: str, name: str, value=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), value))


def install_kklab(rec: SpanRecorder) -> None:
    """Wrap every layer boundary of kklab at the names its callers use."""
    import kklab
    from kklab import causality, cli, kk

    rec.install(kk, "pv_integrate", "pvquad.pv_integrate", lambda a, r: a[0].nu.size)
    rec.install(kk, "fit_tail", "pvquad.fit_tail")
    rec.install(kk, "tail_integral", "pvquad.tail_integral")
    for d in KK_DIRECTIONS:
        fn = f"kk_{d}"
        for owner in (kk, cli, kklab):
            rec.install(owner, fn, f"kk.{d}")
    for owner in (cli, kklab):
        rec.install(owner, "audit", "causality.audit")
    rec.install(causality, "roundtrip_residual", "causality.roundtrip")
    rec.install(causality, "estimate_asymptote", "causality.asymptote")
    rec.install(causality, "_top_decade_fit", "causality.asymptote")
    rec.install(causality, "detect_amplification", "causality.amplification")
    rec.install(causality, "check_bounded", "causality.bounded")
    rec.install(causality.CausalityReport, "to_json", "causality.report_json")
    rec.install(cli, "load_spectrum", "spectra.load", lambda a, r: os.path.getsize(a[0]))
    rec.install(cli, "save_spectrum", "spectra.save", lambda a, r: os.path.getsize(a[1]))
    for fn in ("length_scale_table", "format_length_scale_table", "light_clock_tick"):
        rec.install(cli, fn, "scharnhorst")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of kklab, scipy.integrate and
    scipy.interpolate from ``python -X importtime`` output."""
    wanted = {"kklab": "import.kklab_s", "scipy.integrate": "import.scipy_integrate_s",
              "scipy.interpolate": "import.scipy_interpolate_s"}
    out = dict.fromkeys(wanted.values(), 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        module = parts[-1].strip()
        if module in wanted and parts[1].strip().isdigit():
            out[wanted[module]] = int(parts[1]) * 1e-6
    return out


def layer_totals(spans: list) -> dict:
    """Per-layer sums over spans, grouped by request id.

    A name nested in a span of the same name (the asymptote fit inside the
    asymptote estimate) counts once, at the outermost span. A kk transform
    inside another (re_from_im delegates to subtracted_at_infinity) counts
    only as the outer direction.
    """
    by_request: dict = defaultdict(lambda: defaultdict(float))

    def has_ancestor(i: int, names) -> bool:
        p = spans[i][3]
        while p is not None:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    kk_names = {f"kk.{d}" for d in KK_DIRECTIONS}
    for i, (name, t0, t1, parent, request, value, failed) in enumerate(spans):
        tot = by_request[request]
        dur = t1 - t0
        if name in kk_names:
            if has_ancestor(i, kk_names):
                continue
            tot["kk.transform_s"] += dur
        elif has_ancestor(i, (name,)):
            continue
        tot[f"{name}.calls"] += 1
        tot[f"{name}_s"] += dur
        tot[f"{name}.failures"] += failed
        tot[f"{name}.value"] += value
        if name in PVQUAD:
            tot["pvquad_s"] += dur
        if parent is None and name in CLI_LAYERS:
            tot["cli_layers_s"] += dur
    return {k: dict(v) for k, v in by_request.items()}


def layer_metrics(per_request: list[dict], imports: list[dict], overhead_s: float) -> dict:
    """Per-layer metric values: means over requests of ``layer_totals``
    (with ``wall_s`` added for CLI requests), import times as medians over
    process starts."""
    n = max(len(per_request), 1)

    def mean(key: str) -> float:
        return sum(t.get(key, 0.0) for t in per_request) / n

    out = {}
    for key in ("import.kklab_s", "import.scipy_integrate_s", "import.scipy_interpolate_s"):
        vals = sorted(i[key] for i in imports) or [0.0]
        out[key] = vals[len(vals) // 2]
    out.update({
        "spectra.load_s": mean("spectra.load_s"), "spectra.save_s": mean("spectra.save_s"),
        "spectra.bytes_in": mean("spectra.load.value"),
        "spectra.bytes_out": mean("spectra.save.value"),
        "causality.report_json_s": mean("causality.report_json_s"),
        "pvquad.pv_integrate.calls": mean("pvquad.pv_integrate.calls"),
        "pvquad.pv_integrate_s": mean("pvquad.pv_integrate_s"),
        "pvquad.kernel_evals": mean("pvquad.pv_integrate.value"),
        "pvquad.fit_tail.calls": mean("pvquad.fit_tail.calls"),
        "pvquad.fit_tail_s": mean("pvquad.fit_tail_s"),
        "pvquad.fit_tail.failures": mean("pvquad.fit_tail.failures"),
        "pvquad.tail_integral.calls": mean("pvquad.tail_integral.calls"),
        "pvquad.tail_integral_s": mean("pvquad.tail_integral_s"),
    })
    for d in KK_DIRECTIONS:
        out[f"kk.{d}.calls"] = mean(f"kk.{d}.calls")
        out[f"kk.{d}_s"] = mean(f"kk.{d}_s")
    out["kk.self_s"] = mean("kk.transform_s") - mean("pvquad_s")
    out["causality.audit.calls"] = mean("causality.audit.calls")
    out["causality.audit_s"] = mean("causality.audit_s")
    for sub in ("asymptote", "amplification", "bounded", "roundtrip"):
        out[f"causality.{sub}_s"] = mean(f"causality.{sub}_s")
    out["causality.audit.failures"] = mean("causality.audit.failures")
    out["scharnhorst.calls"] = mean("scharnhorst.calls")
    out["scharnhorst_s"] = mean("scharnhorst_s")
    cli = [t for t in per_request if "wall_s" in t]
    out["cli.self_s"] = (sum(t["wall_s"] - t["import_s"] - t.get("cli_layers_s", 0.0)
                             for t in cli) / len(cli)) if cli else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
