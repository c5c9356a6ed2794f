"""Unit tests for the fault-campaign runner."""

import pytest

from repro.errors import AnalysisError, ConvergenceError
from repro.faults import (BridgedNodes, FaultCampaign, FaultModel,
                         ResistorDrift, standard_adc_campaign,
                         standard_adc_faults)
from repro.spice import Circuit, operating_point


def divider() -> Circuit:
    circuit = Circuit("divider")
    circuit.add_vsource("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "mid", 10e3)
    circuit.add_resistor("R2", "mid", "0", 10e3)
    return circuit


def mid_voltage(circuit: Circuit) -> dict[str, float]:
    return {"v_mid": operating_point(circuit).voltage("mid")}


class _Explosive(FaultModel):
    """A fault whose evaluation always blows up in the solver."""

    @property
    def name(self) -> str:
        return "explosive"

    def apply(self, target):
        raise ConvergenceError("simulated blow-up")


class TestFaultCampaign:
    def test_deltas_against_a_fresh_baseline(self):
        campaign = FaultCampaign(
            build=divider, metric_fn=mid_voltage,
            faults=[ResistorDrift("R2", 3.0),
                    BridgedNodes("mid", "0", resistance=1.0)])
        report = campaign.run()
        assert report.baseline["v_mid"] == pytest.approx(0.5)
        drift = report.outcome("r-drift-R2-x3")
        assert drift.evaluated
        assert drift.metrics["v_mid"] == pytest.approx(0.75)
        assert drift.deltas["v_mid"] == pytest.approx(0.25)
        bridge = report.outcome("bridge-mid-0")
        assert bridge.deltas["v_mid"] == pytest.approx(-0.5, abs=1e-3)

    def test_each_fault_gets_a_fresh_target(self):
        """Two drifts on the same resistor must not compound."""
        campaign = FaultCampaign(
            build=divider, metric_fn=mid_voltage,
            faults=[ResistorDrift("R2", 3.0), ResistorDrift("R2", 3.0)])
        report = campaign.run()
        first, second = report.outcomes
        assert first.metrics == second.metrics

    def test_failing_fault_is_recorded_not_fatal(self):
        campaign = FaultCampaign(
            build=divider, metric_fn=mid_voltage,
            faults=[_Explosive(), ResistorDrift("R2", 3.0)])
        report = campaign.run()
        assert [o.fault for o in report.failed] == ["explosive"]
        bad = report.outcome("explosive")
        assert not bad.evaluated
        assert "simulated blow-up" in bad.error
        assert bad.metrics is None and bad.deltas is None
        # The survivor was still evaluated.
        assert report.outcome("r-drift-R2-x3").evaluated

    def test_worst_ranks_by_absolute_delta(self):
        campaign = FaultCampaign(
            build=divider, metric_fn=mid_voltage,
            faults=[ResistorDrift("R2", 1.5),
                    BridgedNodes("mid", "0", resistance=1.0)])
        assert campaign.run().worst("v_mid").fault == "bridge-mid-0"

    def test_worst_requires_an_evaluated_fault(self):
        campaign = FaultCampaign(build=divider, metric_fn=mid_voltage,
                                 faults=[_Explosive()])
        with pytest.raises(AnalysisError):
            campaign.run().worst("v_mid")

    def test_describe_tables_every_fault(self):
        campaign = FaultCampaign(
            build=divider, metric_fn=mid_voltage,
            faults=[ResistorDrift("R2", 3.0), _Explosive()])
        text = campaign.run().describe()
        assert "baseline" in text
        assert "r-drift-R2-x3" in text
        assert "FAILED: simulated blow-up" in text
        assert "d(v_mid)" in text

    def test_empty_catalogue_rejected(self):
        with pytest.raises(AnalysisError):
            FaultCampaign(build=divider, metric_fn=mid_voltage, faults=[])

    def test_unknown_fault_lookup_rejected(self):
        campaign = FaultCampaign(build=divider, metric_fn=mid_voltage,
                                 faults=[ResistorDrift("R2", 2.0)])
        with pytest.raises(AnalysisError):
            campaign.run().outcome("no-such-fault")


class TestParallelCampaign:
    def test_parallel_report_matches_serial(self):
        faults = [ResistorDrift("R2", 3.0),
                  BridgedNodes("mid", "0", resistance=1.0),
                  _Explosive()]
        serial = FaultCampaign(build=divider, metric_fn=mid_voltage,
                               faults=faults).run()
        parallel = FaultCampaign(build=divider, metric_fn=mid_voltage,
                                 faults=faults, n_workers=2).run()
        assert parallel.baseline == serial.baseline
        assert [o.fault for o in parallel.outcomes] == [
            o.fault for o in serial.outcomes]
        for got, want in zip(parallel.outcomes, serial.outcomes):
            assert got.metrics == want.metrics
            assert got.deltas == want.deltas
            assert got.error == want.error

    def test_unpicklable_build_diagnosed_upfront(self):
        campaign = FaultCampaign(build=lambda: divider(),
                                 metric_fn=mid_voltage,
                                 faults=[ResistorDrift("R2", 2.0)],
                                 n_workers=2)
        with pytest.raises(AnalysisError, match="worker processes"):
            campaign.run()

    def test_workers_validated(self):
        with pytest.raises(AnalysisError):
            FaultCampaign(build=divider, metric_fn=mid_voltage,
                          faults=[ResistorDrift("R2", 2.0)],
                          n_workers=-1)


class TestStandardAdcCampaign:
    def test_blast_radius_is_physically_ordered(self):
        """A dead coarse bank must hurt far more than one stuck fine
        comparator -- the headline claim of the blast-radius report."""
        report = standard_adc_campaign(seed=1, samples_per_code=4).run()
        assert len(report.outcomes) == len(standard_adc_faults())
        assert not report.failed
        stuck_fine = report.outcome("stuck-fine[9]-high")
        dead_coarse = report.outcome("bias-open-coarse")
        assert abs(dead_coarse.deltas["enob"]) > 3.0
        assert abs(stuck_fine.deltas["enob"]) < abs(
            dead_coarse.deltas["enob"])
        assert report.worst("inl").fault in (
            "bias-open-coarse", "bias-open-fine",
            "stuck-coarse[3]-low", "stuck-coarse[5]-high")


def op_mid_voltage(result) -> dict[str, float]:
    """Batched-contract metric: reads a solved OpResult directly."""
    return {"v_mid": result.voltage("mid")}


class TestBatchedCampaign:
    FAULTS = [ResistorDrift("R2", 3.0),
              BridgedNodes("mid", "0", resistance=1.0),  # structural
              _Explosive()]

    def test_batched_report_matches_serial(self):
        """Lane-expressible faults solved stacked, structural faults
        through the rebuild path -- one report, same numbers as serial."""
        serial = FaultCampaign(build=divider, metric_fn=mid_voltage,
                               faults=self.FAULTS).run()
        batched = FaultCampaign(build=divider, metric_fn=op_mid_voltage,
                                faults=self.FAULTS,
                                backend="batched").run()
        assert batched.baseline["v_mid"] == pytest.approx(
            serial.baseline["v_mid"], rel=1e-9)
        assert [o.fault for o in batched.outcomes] == [
            o.fault for o in serial.outcomes]
        for got, want in zip(batched.outcomes, serial.outcomes):
            assert got.evaluated == want.evaluated
            if got.evaluated:
                assert got.deltas["v_mid"] == pytest.approx(
                    want.deltas["v_mid"], rel=1e-9, abs=1e-12)

    def test_backend_validated(self):
        with pytest.raises(AnalysisError):
            FaultCampaign(build=divider, metric_fn=op_mid_voltage,
                          faults=self.FAULTS, backend="gpu")

    def test_batched_excludes_process_pool(self):
        with pytest.raises(AnalysisError, match="n_workers"):
            FaultCampaign(build=divider, metric_fn=op_mid_voltage,
                          faults=self.FAULTS, backend="batched",
                          n_workers=2)

    def test_batched_requires_a_circuit_target(self):
        campaign = FaultCampaign(build=lambda: object(),
                                 metric_fn=op_mid_voltage,
                                 faults=self.FAULTS, backend="batched")
        with pytest.raises(AnalysisError, match="Circuit"):
            campaign.run()


class TestShmCampaign:
    """Parallel campaigns ship (build, metric_fn) by per-chunk pickling
    only; the removed shared-memory route leaves outcomes unchanged."""

    FAULTS = [ResistorDrift("R2", 3.0),
              BridgedNodes("mid", "0", resistance=1.0),
              _Explosive()]

    def test_shm_modes_match_serial_exactly(self):
        serial = FaultCampaign(build=divider, metric_fn=mid_voltage,
                               faults=self.FAULTS).run()
        pooled = FaultCampaign(build=divider, metric_fn=mid_voltage,
                               faults=self.FAULTS, n_workers=2).run()
        assert pooled.baseline == serial.baseline
        for got, want in zip(pooled.outcomes, serial.outcomes):
            assert got.fault == want.fault
            assert got.metrics == want.metrics
            assert got.error == want.error
        with pytest.raises(TypeError, match="shm"):
            FaultCampaign(build=divider, metric_fn=mid_voltage,
                          faults=self.FAULTS, n_workers=2, shm="on")


def pulse_divider() -> Circuit:
    """The DC divider with a pulse drive and a hold cap: dynamics."""
    from repro.spice import pulse_wave

    circuit = Circuit("pulse_divider")
    circuit.add_vsource("V1", "in", "0",
                        waveform=pulse_wave(0.0, 1.0, 1e-6, 1e-7, 1e-7,
                                            2e-6, 4e-6))
    circuit.add_resistor("R1", "in", "mid", 10e3)
    circuit.add_resistor("R2", "mid", "0", 10e3)
    circuit.add_capacitor("C1", "mid", "0", 1e-10)
    return circuit


def tran_mid_metrics(result) -> dict[str, float]:
    """Transient-contract metric: reads a solved TranResult."""
    wave = result.voltage("mid")
    return {"v_final": float(wave[-1]), "v_peak": float(wave.max())}


class TestTransientCampaign:
    """analysis="transient": lockstep waveform campaign over faults."""

    T_STOP = 8e-6
    FAULTS = [ResistorDrift("R2", 3.0),
              BridgedNodes("mid", "0", resistance=1e3)]  # structural

    @staticmethod
    def _grid():
        from repro.spice import TransientOptions

        dt = TestTransientCampaign.T_STOP / 200
        return TransientOptions(dt_initial=dt, dt_min=dt, dt_max=dt)

    def test_report_matches_serial_references(self):
        """On a fixed shared grid each fault's waveform metrics match a
        hand-applied serial transient to solver precision -- the lane
        fault through the lockstep path, the bridge through the
        structural rebuild path."""
        from repro.spice import apply_lane, transient

        report = FaultCampaign(
            build=pulse_divider, metric_fn=tran_mid_metrics,
            faults=self.FAULTS, backend="batched",
            analysis="transient", t_stop=self.T_STOP,
            tran_options=self._grid()).run()

        baseline_ref = tran_mid_metrics(
            transient(pulse_divider(), self.T_STOP, self._grid()))
        circuit = pulse_divider()
        undo = apply_lane(circuit, self.FAULTS[0].lane_spec(circuit))
        try:
            drift_ref = tran_mid_metrics(
                transient(circuit, self.T_STOP, self._grid()))
        finally:
            undo()
        bridged = self.FAULTS[1].apply(pulse_divider())
        bridge_ref = tran_mid_metrics(
            transient(bridged, self.T_STOP, self._grid()))

        for key in ("v_final", "v_peak"):
            assert report.baseline[key] == pytest.approx(
                baseline_ref[key], abs=1e-9)
            assert report.outcome("r-drift-R2-x3").metrics[key] == \
                pytest.approx(drift_ref[key], abs=1e-9)
            assert report.outcome("bridge-mid-0").metrics[key] == \
                pytest.approx(bridge_ref[key], abs=1e-9)
        assert all(o.evaluated for o in report.outcomes)

    def test_transient_requires_batched_backend(self):
        with pytest.raises(AnalysisError, match="batched"):
            FaultCampaign(build=pulse_divider, metric_fn=tran_mid_metrics,
                          faults=self.FAULTS, analysis="transient",
                          t_stop=self.T_STOP)

    def test_transient_requires_positive_t_stop(self):
        with pytest.raises(AnalysisError, match="t_stop"):
            FaultCampaign(build=pulse_divider, metric_fn=tran_mid_metrics,
                          faults=self.FAULTS, backend="batched",
                          analysis="transient")

    def test_analysis_validated(self):
        with pytest.raises(AnalysisError, match="analysis"):
            FaultCampaign(build=pulse_divider, metric_fn=tran_mid_metrics,
                          faults=self.FAULTS, analysis="ac")
