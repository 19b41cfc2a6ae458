"""Ablation benches for three modelling decisions; each bench asserts
that the rejected alternative measurably changes the outcome:

* **D2** — DREAM's *Set one bit* block: quality with vs without the
  implied-boundary-bit compensation.
* **D3** — mask-memory energy model: voltage-tracking (default) vs
  nominal-supply side array.
* **D5** — logical/physical scrambling: run-to-run SNR variance with a
  fixed defect map, with and without address randomisation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import make_app
from repro.emt import DreamEMT, NoProtection
from repro.energy import EnergySystemModel
from repro.energy.accounting import Workload
from repro.mem import AddressMap, MemoryFabric, sample_fault_map
from repro.mem.layout import PAPER_GEOMETRY
from repro.signals import load_record


def test_d2_set_one_bit_ablation(benchmark, report_sink):
    """The boundary bit buys measurable SNR in the multi-error regime."""
    record = load_record("100", duration_s=8.0)
    app = make_app("dwt")
    variants = {
        "dream(+set-one-bit)": DreamEMT(compensate_boundary=True),
        "dream(-set-one-bit)": DreamEMT(compensate_boundary=False),
    }

    def sweep():
        snrs = {name: [] for name in variants}
        for seed in range(8):
            rng = np.random.default_rng(seed)
            shared = sample_fault_map(PAPER_GEOMETRY.n_words, 16, 3e-3, rng)
            for name, emt in variants.items():
                fabric = MemoryFabric(emt, fault_map=shared)
                out = app.run(record.samples, fabric)
                snrs[name].append(app.output_snr(record.samples, out))
        return {name: float(np.mean(v)) for name, v in snrs.items()}

    means = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["D2 ablation — DWT @ BER 3e-3 (8 runs):"]
    for name, snr in means.items():
        lines.append(f"  {name:22s} {snr:6.2f} dB")
    gain = means["dream(+set-one-bit)"] - means["dream(-set-one-bit)"]
    lines.append(f"  set-one-bit gain: {gain:+.2f} dB")
    report_sink.add("ablation_d2_set_one_bit", "\n".join(lines))
    assert gain > 0.0


def test_d3_mask_memory_voltage_ablation(benchmark, report_sink):
    """Nominal-supply mask memory erodes DREAM's advantage at low V."""
    workload = Workload(n_reads=100_000, n_writes=100_000, duration_s=3e-3)

    def sweep():
        rows = []
        for voltage in (0.9, 0.8, 0.7, 0.6, 0.5):
            base = EnergySystemModel(NoProtection()).evaluate(voltage, workload)
            scaled = EnergySystemModel(
                DreamEMT(), mask_memory_scaled=True
            ).evaluate(voltage, workload)
            nominal = EnergySystemModel(
                DreamEMT(), mask_memory_scaled=False
            ).evaluate(voltage, workload)
            rows.append(
                (voltage, scaled.overhead_vs(base), nominal.overhead_vs(base))
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["D3 ablation — DREAM overhead vs no protection:",
             "   V    mask tracks Vdd   mask at 0.9 V"]
    for voltage, scaled, nominal in rows:
        lines.append(f"  {voltage:.2f}   {scaled * 100:10.1f}%   {nominal * 100:10.1f}%")
    report_sink.add("ablation_d3_mask_memory", "\n".join(lines))
    # Tracking: flat ~34 %.  Nominal: grows as the data supply scales.
    assert rows[0][1] == pytest.approx(rows[-1][1], abs=0.02)
    assert rows[-1][2] > rows[0][2] + 0.3


def test_d5_scrambling_ablation(benchmark, report_sink):
    """Address randomisation turns fixed defects into per-run samples."""
    record = load_record("106", duration_s=8.0)
    app = make_app("morphology")
    rng = np.random.default_rng(7)
    fixed_defects = sample_fault_map(PAPER_GEOMETRY.n_words, 16, 2e-4, rng)

    def sweep():
        snrs = {"scrambled": [], "direct": []}
        for seed in range(8):
            scrambled = MemoryFabric(
                NoProtection(),
                fault_map=fixed_defects,
                address_map=AddressMap(
                    PAPER_GEOMETRY, rng=np.random.default_rng(seed)
                ),
            )
            direct = MemoryFabric(NoProtection(), fault_map=fixed_defects)
            for name, fabric in (("scrambled", scrambled), ("direct", direct)):
                out = app.run(record.samples, fabric)
                snrs[name].append(app.output_snr(record.samples, out))
        return snrs

    snrs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    spread = {name: float(np.std(v)) for name, v in snrs.items()}
    lines = [
        "D5 ablation — run-to-run SNR std-dev with fixed defects (8 runs):",
        f"  with scrambling:    {spread['scrambled']:.3f} dB",
        f"  without scrambling: {spread['direct']:.3f} dB",
    ]
    report_sink.add("ablation_d5_scrambling", "\n".join(lines))
    assert spread["direct"] == pytest.approx(0.0, abs=1e-9)
    assert spread["scrambled"] > 0.0
