"""Unit tests for the VCD waveform exporter."""

import io

import pytest

from repro.digital.registers import build_binary_counter
from repro.digital.vcd import dump_vcd
from repro.errors import AnalysisError
from repro.scope.vcd import identifier
from repro.stscl import StsclGateDesign


@pytest.fixture(scope="module")
def counter_vcd():
    netlist = build_binary_counter(3)
    stimulus = [{"en": True}] * 10
    return netlist, dump_vcd(netlist, stimulus)


class TestIdentifiers:
    def test_unique_for_many_signals(self):
        ids = {identifier(k) for k in range(500)}
        assert len(ids) == 500

    def test_rejects_negative(self):
        with pytest.raises(AnalysisError):
            identifier(-1)


class TestStructure:
    def test_header_sections(self, counter_vcd):
        _netlist, text = counter_vcd
        for token in ("$timescale", "$scope", "$enddefinitions",
                      "$upscope"):
            assert token in text

    def test_declares_expected_signals(self, counter_vcd):
        _netlist, text = counter_vcd
        for net in ("en", "q0", "q1", "q2"):
            assert f" {net} $end" in text

    def test_stream_argument(self):
        netlist = build_binary_counter(2)
        buffer = io.StringIO()
        text = dump_vcd(netlist, [{"en": True}] * 3, stream=buffer)
        assert buffer.getvalue() == text

    def test_empty_stimulus_rejected(self):
        with pytest.raises(AnalysisError):
            dump_vcd(build_binary_counter(2), [])


class TestValueChanges:
    def _changes_of(self, text: str, identifier: str) -> list[str]:
        return [line for line in text.splitlines()
                if line.endswith(identifier)
                and line[0] in "01"]

    def test_lsb_toggles_every_cycle(self, counter_vcd):
        _netlist, text = counter_vcd
        # Find q0's identifier from its declaration line.
        declaration = next(line for line in text.splitlines()
                           if line.endswith(" q0 $end"))
        identifier = declaration.split()[3]
        changes = self._changes_of(text, identifier)
        # q0 toggles on all 10 cycles.
        assert len(changes) == 10
        assert [c[0] for c in changes[:4]] == ["1", "0", "1", "0"]

    def test_timescale_uses_design_rate_exactly(self):
        """One cycle of the dump spans exactly the design's clock
        period -- at whatever (possibly sub-ns) timescale represents
        the non-integer period without rounding."""
        from repro.scope.vcd import parse_vcd, timescale_seconds

        netlist = build_binary_counter(2)
        design = StsclGateDesign.default(1e-9)  # f_max ~103 kHz
        text = dump_vcd(netlist, [{"en": True}] * 2, design=design)
        document = parse_vcd(text)
        period_s = 1.0 / design.max_frequency(1)
        ticks = {t for t, _i, _v in document.changes if t > 0}
        assert len(ticks) == 1
        scale = timescale_seconds(document.timescale)
        # Exact to the writer's 1 ppb representation tolerance (the
        # old exporter's integer-ns round was off by ~3e-5 relative).
        assert next(iter(ticks)) * scale == pytest.approx(
            period_s, rel=2e-9)

    def test_fractional_ns_period_keeps_cursor_accuracy(self):
        """A 0.5 ns clock dumps at 100ps x 5 (the old exporter rounded
        the timescale to 1ns: a 2x cursor error)."""
        from repro.digital.vcd import cycle_timescale

        label, ticks = cycle_timescale(0.5e-9)
        assert (label, ticks) == ("100ps", 5)

    def test_net_filter(self):
        netlist = build_binary_counter(3)
        text = dump_vcd(netlist, [{"en": True}] * 4, nets=["q2"])
        assert " q2 $end" in text
        assert " q0 $end" not in text
