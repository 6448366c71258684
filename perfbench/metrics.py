"""Names, units and definitions of the benchmark's metrics.

End-to-end metrics come from untraced runs only.  Per-call latency is
gated by its mean (per iteration, then the median over iterations) and its
p95, not its p50: on a host whose CPU speed switches between two levels
within a second, the p50 of a run jumps between the two levels as their
mix crosses one half, while the mean moves with the mix.  Per-layer metrics come
from the spans of a traced iteration (see tracer.py) plus counts taken at
the same boundaries: CPU time from rusage, output sizes from the files.
"""

from __future__ import annotations

from checks import OUTPUT_FILES
from tracer import SpanIndex

END_TO_END = (
    ("run_s", "s"),
    ("series_per_s", "1/s"),
    ("series_ms.mean", "ms"),
    ("series_ms.p95", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

GENERATORS = ("synth.gen_fgn", "synth.gen_fbm", "synth.gen_mrw",
              "synth.generate")
WELCH = ("scaling.welch_psd", "scaling.fit_psd_powerlaw")
GROUP_TESTS = ("grouptests.one_sample_t", "grouptests.wilcoxon_signed_rank",
               "grouptests.paired_t_two_state",
               "grouptests.unpaired_t_two_state", "grouptests.rm_anova_2way")


def _file_key(name: str) -> str:
    return name.replace(".", "_")


PER_LAYER = (
    ("synth.gen.calls", "count"),
    ("synth.gen.busy_s", "s"),
    ("wavelet.build_wavelet.calls", "count"),
    ("wavelet.build_wavelet.busy_s", "s"),
    ("wavelet.dwt.busy_s", "s"),
    ("wavelet.dwt.msamples_per_s", "Msamples/s"),
    ("scaling.fit_loglog.calls", "count"),
    ("scaling.fit_loglog.busy_s", "s"),
    ("scaling.welch.busy_s", "s"),
    ("scaling.welch.errors", "count"),
    ("scaling.wavelet_spectrum.busy_s", "s"),
    ("leaders_mf.log_cumulants.busy_s", "s"),
    ("leaders_mf.structure_functions.busy_s", "s"),
    ("leaders_mf.compute_leaders.busy_s", "s"),
    ("leaders_mf.legendre_spectrum.busy_s", "s"),
    ("leaders_mf.multifractal_estimate.self_s", "s"),
    ("grouptests.run_battery.busy_s", "s"),
    ("grouptests.tests.calls", "count"),
    ("grouptests.wilcoxon_signed_rank.busy_s", "s"),
    ("pipeline.load_dataset.busy_s", "s"),
    ("pipeline.ingest_mb_per_s", "MB/s"),
    ("pipeline.run_full_analysis.self_s", "s"),
) + tuple(
    (f"pipeline.output_bytes.{_file_key(f)}", "B") for f in OUTPUT_FILES
) + tuple(
    (f"pipeline.output_rows.{_file_key(f)}", "count") for f in OUTPUT_FILES
) + (
    ("pipeline.analyze_series.calls", "count"),
    ("pipeline.analyze_series.self_s", "s"),
    ("pipeline.analyze_series.errors", "count"),
    ("pipeline.parent_cpu_s", "s"),
    ("pipeline.workers_cpu_s", "s"),
    ("pipeline.parallel_efficiency", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans, output_counts: dict, input_bytes: int) -> dict:
    """Span-derived per-layer values of one traced iteration.

    output_counts: file name -> (bytes, rows) of the run's outputs.
    input_bytes: bytes of CSV the run ingested (0 when it reads none).
    The CPU and overhead metrics are added by the caller.
    """
    ix = SpanIndex(spans)
    out = {
        "synth.gen.calls": ix.calls(*GENERATORS),
        "synth.gen.busy_s": ix.busy(*GENERATORS),
        "wavelet.build_wavelet.calls": ix.calls("wavelet.build_wavelet"),
        "wavelet.build_wavelet.busy_s": ix.busy("wavelet.build_wavelet"),
        "wavelet.dwt.busy_s": ix.busy("wavelet.dwt"),
        "wavelet.dwt.msamples_per_s": _rate(ix.size("wavelet.dwt") / 1e6,
                                            ix.busy("wavelet.dwt")),
        "scaling.fit_loglog.calls": ix.calls("scaling.fit_loglog"),
        "scaling.fit_loglog.busy_s": ix.busy("scaling.fit_loglog"),
        "scaling.welch.busy_s": ix.busy(*WELCH),
        "scaling.welch.errors": ix.errors(*WELCH),
        "scaling.wavelet_spectrum.busy_s": ix.busy("scaling.wavelet_spectrum"),
        "leaders_mf.log_cumulants.busy_s": ix.busy("leaders_mf.log_cumulants"),
        "leaders_mf.structure_functions.busy_s":
            ix.busy("leaders_mf.structure_functions"),
        "leaders_mf.compute_leaders.busy_s":
            ix.busy("leaders_mf.compute_leaders"),
        "leaders_mf.legendre_spectrum.busy_s":
            ix.busy("leaders_mf.legendre_spectrum"),
        "leaders_mf.multifractal_estimate.self_s":
            ix.self_time("leaders_mf.multifractal_estimate"),
        "grouptests.run_battery.busy_s": ix.busy("grouptests.run_battery"),
        "grouptests.tests.calls": ix.calls(*GROUP_TESTS),
        "grouptests.wilcoxon_signed_rank.busy_s":
            ix.busy("grouptests.wilcoxon_signed_rank"),
        "pipeline.load_dataset.busy_s": ix.busy("pipeline.load_dataset"),
        "pipeline.ingest_mb_per_s": _rate(input_bytes / 1e6,
                                          ix.busy("pipeline.load_dataset")),
        "pipeline.run_full_analysis.self_s":
            ix.self_time("pipeline.run_full_analysis"),
        "pipeline.analyze_series.calls": ix.calls("pipeline.analyze_series"),
        "pipeline.analyze_series.self_s":
            ix.self_time("pipeline.analyze_series"),
        "pipeline.analyze_series.errors": ix.errors("pipeline.analyze_series"),
    }
    for name in OUTPUT_FILES:
        size, rows = output_counts.get(name, (0, 0))
        out[f"pipeline.output_bytes.{_file_key(name)}"] = size
        out[f"pipeline.output_rows.{_file_key(name)}"] = rows
    return out
