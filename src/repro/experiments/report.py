"""Plain-text rendering of experiment results: tables and trace timelines.

Value and table formatting is shared with every other human-facing
renderer through :mod:`repro.analysis.format`; this module keeps only
the trace timeline, which has no tabular shape.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.format import fmt_value, render_ascii_table


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = "") -> str:
    """Fixed-width ASCII table; floats rendered to three decimals."""
    return render_ascii_table(headers, rows, title=title)


def _fmt_value(v: object) -> str:
    return fmt_value(v, max_len=40)


def render_trace_timeline(traces, *, title: str = "") -> str:
    """Per-epoch decision timeline from :class:`~repro.core.trace.EpochTrace` records.

    One block per epoch: the stages that ran (skipped ones included,
    with the reason), every scored candidate, and the winning
    configuration the epoch actuated.
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    for t in traces:
        head = f"epoch {t.epoch}  policy={t.policy}  sampling_intervals={t.sampling_intervals}"
        if t.degraded:
            head += "  DEGRADED"
        if t.failure:
            head += f"  failure: {t.failure}"
        lines.append(head)
        for s in t.stages:
            if s.skipped:
                lines.append(f"  {s.stage:<28} skipped ({s.detail.get('reason', '?')})")
                continue
            parts = [
                f"{k}={_fmt_value(v)}"
                for k, v in s.detail.items()
                if k != "candidates" and not isinstance(v, dict)
            ]
            lines.append(f"  {s.stage:<28} {'  '.join(parts)}".rstrip())
            for c in s.detail.get("candidates", ()):
                extra = "".join(
                    f"  {k}={_fmt_value(v)}"
                    for k, v in c.items()
                    if k not in ("off", "hm_ipc")
                )
                lines.append(f"      candidate off={c.get('off')}  hm_ipc={c.get('hm_ipc', 0.0):.4f}{extra}")
        if t.winner is not None:
            lines.append(
                f"  winner: throttled={t.winner.get('throttled')}  "
                f"clos_cbm={t.winner.get('clos_cbm')}"
            )
    return "\n".join(lines)
