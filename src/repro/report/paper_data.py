"""The numbers published in the paper's Tables 1 and 2.

``repro table1`` / ``table2`` print them next to the reproduced results.
Absolute values cannot be expected to match (the paper used Synopsys Design
Compiler with the LSI lcbg10pv 0.35 um library); the quantities that should
reproduce are the *orderings* (FA_AOT fastest, conventional slowest; FA_ALP
below FA_random) and the rough magnitude of the improvement percentages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class PaperTable1Row:
    """One row of the paper's Table 1 (timing optimization)."""

    design: str
    conventional_time_ns: float
    conventional_area: float
    csa_opt_time_ns: float
    csa_opt_area: float
    fa_aot_time_ns: float
    fa_aot_area: float

    @property
    def time_improvement_vs_conventional(self) -> float:
        """Published delay improvement of FA_AOT over the conventional flow (%)."""
        return 100.0 * (self.conventional_time_ns - self.fa_aot_time_ns) / self.conventional_time_ns

    @property
    def time_improvement_vs_csa_opt(self) -> float:
        """Published delay improvement of FA_AOT over CSA_OPT (%)."""
        return 100.0 * (self.csa_opt_time_ns - self.fa_aot_time_ns) / self.csa_opt_time_ns


@dataclass(frozen=True)
class PaperTable2Row:
    """One row of the paper's Table 2 (power optimization)."""

    design: str
    fa_random_mw: float
    fa_alp_mw: float

    @property
    def improvement(self) -> float:
        """Published power improvement of FA_ALP over FA_random (%)."""
        return 100.0 * (self.fa_random_mw - self.fa_alp_mw) / self.fa_random_mw


#: Table 1 of the paper, keyed by this package's design names.
PAPER_TABLE1: Dict[str, PaperTable1Row] = {
    "x2": PaperTable1Row("X2", 1.33, 545, 1.06, 275, 0.33, 160),
    "x3": PaperTable1Row("X3", 3.54, 2345, 3.24, 1670, 2.01, 825),
    "x2_plus_x_plus_y": PaperTable1Row("X2 + X + Y", 4.63, 5534, 3.84, 3789, 3.18, 3111),
    "square_of_sum": PaperTable1Row(
        "x2 + 2xy + y2 + 2x + 2y + 1", 5.26, 9138, 4.63, 8134, 4.01, 6458
    ),
    "mixed_products": PaperTable1Row(
        "x + y - z + x.y - y.z + 10", 5.16, 7568, 3.77, 6297, 3.61, 5916
    ),
    "iir": PaperTable1Row("IIR", 6.57, 13362, 4.75, 11202, 3.68, 8349),
    "kalman": PaperTable1Row("Kalman", 6.09, 31073, 4.50, 25713, 3.69, 21542),
    "idct": PaperTable1Row("IDCT", 11.51, 85364, 6.38, 77052, 4.45, 60307),
    "complex": PaperTable1Row("Complex", 5.22, 53879, 4.51, 50083, 3.70, 38343),
    "serial_adapter": PaperTable1Row("Serial-Adapter", 6.46, 6593, 6.00, 5608, 5.72, 5631),
}

#: Paper-reported average improvements for Table 1 (percent).
PAPER_TABLE1_AVERAGE_IMPROVEMENT = {"vs_conventional": 37.8, "vs_csa_opt": 23.5}

#: Table 2 of the paper, keyed by this package's design names.
PAPER_TABLE2: Dict[str, PaperTable2Row] = {
    "iir": PaperTable2Row("IIR", 257.0, 240.0),
    "kalman": PaperTable2Row("Kalman", 316.0, 281.0),
    "idct": PaperTable2Row("IDCT", 1406.0, 1324.0),
    "complex": PaperTable2Row("Complx", 330.0, 299.0),
    "serial_adapter": PaperTable2Row("Serial-Adapter", 324.0, 240.0),
}

#: Paper-reported average improvement for Table 2 (percent).
PAPER_TABLE2_AVERAGE_IMPROVEMENT = 11.8
