"""Experiment drivers reproducing every table and figure of the paper.

Each module reproduces one artefact of the evaluation:

* :mod:`repro.exp.fig2` — Fig 2, SNR vs bit position of injected
  stuck-at errors (the significance characterisation, Section III);
* :mod:`repro.exp.fig4` — Fig 4a/b/c, SNR vs supply voltage per EMT
  (Section VI-A);
* :mod:`repro.exp.energy_table` — the Section VI-B energy-overhead and
  area analysis;
* :mod:`repro.exp.tradeoff` — the Section VI-C voltage-range policy and
  savings;
* :mod:`repro.exp.overheads` — Formula 2 / Section V memory overheads;
* :mod:`repro.exp.report` — ASCII renderers for all of the above;
* :mod:`repro.exp.common` — the shared Monte-Carlo machinery.

The grid-shaped drivers (Fig 2, Fig 4, energy, trade-off) express their
grids as :class:`repro.campaign.CampaignSpec` objects executed through
the shared campaign runner — ``fig2_spec``/``fig4_spec``/``energy_spec``
build the specs, and every ``run_*`` driver accepts ``n_workers`` and an
optional result ``store`` for parallel, resumable sweeps.
"""

from .common import ExperimentConfig, MonteCarloResult
from .energy_table import EnergyAnalysis, energy_spec, run_energy_analysis
from .fig2 import Fig2Result, fig2_spec, run_fig2
from .fig4 import Fig4Result, fig4_spec, run_fig4
from .overheads import OverheadRow, overhead_table
from .tradeoff import TradeoffResult, run_tradeoff

__all__ = [
    "ExperimentConfig",
    "MonteCarloResult",
    "Fig2Result",
    "fig2_spec",
    "run_fig2",
    "Fig4Result",
    "fig4_spec",
    "run_fig4",
    "EnergyAnalysis",
    "energy_spec",
    "run_energy_analysis",
    "TradeoffResult",
    "run_tradeoff",
    "OverheadRow",
    "overhead_table",
]
