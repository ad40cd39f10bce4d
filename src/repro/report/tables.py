"""Builders for the Table 1 / Table 2 style reports.

The renderers read metric records — ``FlowResult.to_dict()`` dicts from a
sweep, its cache or a JSON artifact — indexed by ``(design_name, method)``,
and render a plain-text table that places the reproduced numbers next to
the numbers published in the paper.  Each listed design gets one row, in
``designs`` order (a design listed twice renders twice).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.designs.base import DatapathDesign
from repro.report.paper_data import PAPER_TABLE1, PAPER_TABLE2
from repro.utils.metrics import improvement_pct
from repro.utils.tables import TextTable

Record = Mapping[str, object]


def _by_design_method(records: Sequence[Record]) -> Dict[Tuple[str, str], Record]:
    """Index records by ``(design_name, method)``; a later record wins."""
    return {(str(r["design_name"]), str(r["method"])): r for r in records}


def _mean(values: List[float]) -> Optional[float]:
    """Mean of the non-NaN values (``None`` if there are none): NaN rows
    (zero-valued reference metrics) stay visible in the table but must not
    poison the averages."""
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else None


def table1_report(
    records: Sequence[Record],
    designs: Sequence[DatapathDesign],
    include_paper: bool = True,
) -> str:
    """Render the timing-optimization comparison (paper Table 1).

    Columns: conventional / CSA_OPT / FA_AOT delay and area, the delay
    improvements of FA_AOT over both references, and (optionally) the
    improvements the paper reports for the same designs.
    """
    headers = [
        "design",
        "conv delay",
        "csa_opt delay",
        "fa_aot delay",
        "conv area",
        "csa_opt area",
        "fa_aot area",
        "impr vs conv %",
        "impr vs csa %",
    ]
    if include_paper:
        headers += ["paper impr conv %", "paper impr csa %"]
    table = TextTable(headers, float_digits=2)
    index = _by_design_method(records)

    improvements_conventional: List[float] = []
    improvements_csa: List[float] = []
    for design in designs:
        conv, csa, aot = (
            index[(design.name, method)] for method in ("conventional", "csa_opt", "fa_aot")
        )
        impr_conv = improvement_pct(conv["delay_ns"], aot["delay_ns"])
        impr_csa = improvement_pct(csa["delay_ns"], aot["delay_ns"])
        improvements_conventional.append(impr_conv)
        improvements_csa.append(impr_csa)
        cells = [
            design.title,
            conv["delay_ns"],
            csa["delay_ns"],
            aot["delay_ns"],
            conv["area"],
            csa["area"],
            aot["area"],
            impr_conv,
            impr_csa,
        ]
        if include_paper:
            paper = PAPER_TABLE1.get(design.name)
            if paper is None:
                cells += [None, None]
            else:
                cells += [
                    paper.time_improvement_vs_conventional,
                    paper.time_improvement_vs_csa_opt,
                ]
        table.add_row(cells)

    lines = [table.render(title="Table 1 — timing-optimized designs")]
    average_conv = _mean(improvements_conventional)
    average_csa = _mean(improvements_csa)
    if average_conv is not None and average_csa is not None:
        lines.append(
            f"Average FA_AOT delay improvement: {average_conv:.1f}% vs conventional, "
            f"{average_csa:.1f}% vs CSA_OPT (paper: 37.8% / 23.5%)"
        )
    return "\n".join(lines)


def table2_report(
    records: Sequence[Record],
    designs: Sequence[DatapathDesign],
    include_paper: bool = True,
) -> str:
    """Render the power-optimization comparison (paper Table 2)."""
    headers = ["design", "FA_random E_sw", "FA_ALP E_sw", "impr %"]
    if include_paper:
        headers += ["paper FA_random mW", "paper FA_ALP mW", "paper impr %"]
    table = TextTable(headers, float_digits=2)
    index = _by_design_method(records)

    improvements: List[float] = []
    for design in designs:
        random_energy = index[(design.name, "fa_random")]["tree_energy"]
        alp_energy = index[(design.name, "fa_alp")]["tree_energy"]
        improvement = improvement_pct(random_energy, alp_energy)
        improvements.append(improvement)
        cells = [design.title, random_energy, alp_energy, improvement]
        if include_paper:
            paper = PAPER_TABLE2.get(design.name)
            if paper is None:
                cells += [None, None, None]
            else:
                cells += [paper.fa_random_mw, paper.fa_alp_mw, paper.improvement]
        table.add_row(cells)

    lines = [table.render(title="Table 2 — power-optimized designs")]
    average = _mean(improvements)
    if average is not None:
        lines.append(
            f"Average FA_ALP power improvement over FA_random: {average:.1f}% "
            f"(paper: 11.8%)"
        )
    return "\n".join(lines)
