"""Allocation-time power model for full and half adders.

Section 4 of the paper measures the power of an FA-tree T as

    E_switching(T) = sum over FAs v of  Ws * p(vs)(1-p(vs)) + Wc * p(vc)(1-p(vc))

where ``Ws`` / ``Wc`` are the energies of one transition of the sum / carry
output and p(.) are signal probabilities under a zero-delay, spatially
independent model.  For an FA with inputs of probability p(x), p(y), p(z) and
q(v) = p(v) - 0.5 the paper gives

    q(s) = 4 * q(x) * q(y) * q(z)
    q(c) = 0.5 * (q(x) + q(y) + q(z)) - 2 * q(x) * q(y) * q(z)

This module provides those formulas (plus direct probability forms and the HA
equivalents) and the :class:`FAPowerModel` parameter bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


def switching_activity(probability: float) -> float:
    """Average switching activity p(1-p) of a signal with probability p."""
    return probability * (1.0 - probability)


def fa_output_probabilities(px: float, py: float, pz: float) -> Tuple[float, float]:
    """Exact (sum, carry) output probabilities of an FA with independent inputs.

    sum   = x XOR y XOR z      (probability of an odd number of ones)
    carry = majority(x, y, z)
    """
    p_sum = (
        px * (1 - py) * (1 - pz)
        + py * (1 - px) * (1 - pz)
        + pz * (1 - px) * (1 - py)
        + px * py * pz
    )
    p_carry = px * py + px * pz + py * pz - 2.0 * px * py * pz
    return p_sum, p_carry


def fa_output_q(qx: float, qy: float, qz: float) -> Tuple[float, float]:
    """The paper's closed-form q(s), q(c) of an FA (Section 4.2)."""
    qs = 4.0 * qx * qy * qz
    qc = 0.5 * (qx + qy + qz) - 2.0 * qx * qy * qz
    return qs, qc


def ha_output_probabilities(px: float, py: float) -> Tuple[float, float]:
    """Exact (sum, carry) output probabilities of an HA with independent inputs."""
    p_sum = px + py - 2.0 * px * py
    p_carry = px * py
    return p_sum, p_carry


@dataclass(frozen=True)
class FAPowerModel:
    """FA/HA per-transition output energies (the paper's Ws and Wc).

    ``ha_sum_energy`` / ``ha_carry_energy`` default to the FA values when not
    given.  The unit is arbitrary but must be consistent across cells; the
    default library uses values that make whole-design totals land in the
    milliwatt range the paper reports.
    """

    sum_energy: float = 1.0
    carry_energy: float = 1.0
    ha_sum_energy: Optional[float] = None
    ha_carry_energy: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sum_energy < 0 or self.carry_energy < 0:
            raise ValueError("FA energies must be non-negative")
        if self.ha_sum_energy is None:
            object.__setattr__(self, "ha_sum_energy", self.sum_energy)
        if self.ha_carry_energy is None:
            object.__setattr__(self, "ha_carry_energy", self.carry_energy)

    # ----------------------------------------------------------- propagation
    def fa_probabilities(self, px: float, py: float, pz: float) -> Tuple[float, float]:
        """(sum, carry) probabilities of an FA (independence assumption)."""
        return fa_output_probabilities(px, py, pz)

    def ha_probabilities(self, px: float, py: float) -> Tuple[float, float]:
        """(sum, carry) probabilities of an HA (independence assumption)."""
        return ha_output_probabilities(px, py)

    def fa_switching_energy(self, p_sum: float, p_carry: float) -> float:
        """Ws*p_s(1-p_s) + Wc*p_c(1-p_c) of one FA."""
        return self.sum_energy * switching_activity(p_sum) + self.carry_energy * (
            switching_activity(p_carry)
        )

    def ha_switching_energy(self, p_sum: float, p_carry: float) -> float:
        """The HA counterpart of :meth:`fa_switching_energy`."""
        return float(self.ha_sum_energy) * switching_activity(p_sum) + float(
            self.ha_carry_energy
        ) * switching_activity(p_carry)

    def satisfies_property1_precondition(self) -> bool:
        """True when 2*sqrt(Ws) >= sqrt(Wc) (precondition of Property 1)."""
        return 2.0 * self.sum_energy ** 0.5 >= self.carry_energy ** 0.5

    # ----------------------------------------------------------- convenience
    @classmethod
    def from_library(cls, library) -> "FAPowerModel":
        """Extract Ws/Wc (and HA equivalents) from a technology library."""
        parameters = library.fa_power_model()
        return cls(
            sum_energy=parameters.sum_energy,
            carry_energy=parameters.carry_energy,
            ha_sum_energy=parameters.ha_sum_energy,
            ha_carry_energy=parameters.ha_carry_energy,
        )

    @classmethod
    def paper_example(cls) -> "FAPowerModel":
        """Ws=Wc=1 — the values used in Figure 4 of the paper."""
        return cls(sum_energy=1.0, carry_energy=1.0)
