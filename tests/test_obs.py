"""Observability layer: tracing, timeseries, recording, exporters, CLI.

The load-bearing contract throughout is **pure observation**: a traced
run produces a payload byte-identical to an untraced run on both burst
engines and on every run path (flat concurrent, cluster, governed) —
pinned here with ``canonical_json`` comparisons.  The second contract
is **exhaustive attribution**: the fault-pipeline stage spans sum to
exactly the recorded fault time, which is what lets the CI obs lane
gate ``repro obs top`` at 95%.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.obs import (
    NULL_TRACER,
    MetricsTimeseries,
    NullTracer,
    RunRecorder,
    TraceCollector,
    attribution_rows,
    load_recording,
)
from repro.obs.names import (
    NAMES,
    STAGE_NAMES,
    TRACK_MACHINE,
    core_track,
    track_label,
)
from repro.obs.record import FORMAT
from repro.provenance import canonical_json
from repro.scenarios import run_scenario
from repro.service import RunService, ScenarioJob, job_from_dict
from repro.sim.units import ms

SMALL = dict(wss_pages=64, total_accesses=400)


def _load_schema_checker():
    path = Path(__file__).resolve().parent.parent / "tools" / "check_trace_schema.py"
    spec = importlib.util.spec_from_file_location("check_trace_schema", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record_scenario(name: str, **kwargs) -> tuple[dict, RunRecorder]:
    # 0.1 ms epochs: the SMALL runs finish in a few simulated ms, so
    # the 1 ms default would leave almost no timeseries rows to test.
    recorder = RunRecorder(epoch_ns=ms(0.1))
    payload = run_scenario(name, observer=recorder, **kwargs)
    spec = {"scenario": name, **payload["config"]}
    recording = recorder.finish(
        payload, spec=spec, engine=payload["config"]["engine"], seed=42
    )
    return recording, recorder


@pytest.fixture(scope="module")
def recorded():
    """One recorded web-tier run shared by the read-only tests."""
    recording, recorder = record_scenario("web-tier-zipf", cores=2, **SMALL)
    return recording, recorder


@pytest.fixture()
def recording_file(recorded, tmp_path):
    recording, _ = recorded
    path = tmp_path / "rec.json"
    path.write_text(canonical_json(recording) + "\n")
    return path


# ------------------------------------------------------ TraceCollector


class TestTraceCollector:
    def test_disabled_by_default_and_toggles(self):
        tracer = TraceCollector()
        assert not tracer.enabled
        tracer.enable()
        assert tracer.enabled
        tracer.disable()
        assert not tracer.enabled

    def test_columnar_span_storage(self):
        tracer = TraceCollector()
        tracer.span(3, TRACK_MACHINE, 100, 50)
        tracer.span(4, core_track(1), 200, 25)
        assert list(tracer.span_name) == [3, 4]
        assert list(tracer.span_track) == [0, 2]
        assert list(tracer.span_start) == [100, 200]
        assert list(tracer.span_dur) == [50, 25]

    def test_zero_duration_span_dropped(self):
        tracer = TraceCollector()
        tracer.span(3, 0, 100, 0)
        assert tracer.event_count() == 0

    def test_instants_and_counters(self):
        tracer = TraceCollector()
        tracer.instant(1, 0, 10)
        tracer.counter(2, 0, 20, 7)
        assert list(tracer.instant_value) == [0]
        assert list(tracer.counter_value) == [7]
        assert tracer.event_count() == 2

    def test_stage_totals_sums_per_name(self):
        tracer = TraceCollector()
        tracer.span(1, 0, 0, 10)
        tracer.span(1, 0, 20, 5)
        tracer.span(2, 0, 30, 3)
        assert tracer.stage_totals() == {1: 15, 2: 3}

    def test_reset_drops_events_keeps_enabled(self):
        tracer = TraceCollector()
        tracer.enable()
        tracer.span(1, 0, 0, 10)
        tracer.reset()
        assert tracer.enabled
        assert tracer.event_count() == 0

    def test_null_tracer_refuses_enable(self):
        with pytest.raises(RuntimeError, match="cannot be enabled"):
            NullTracer().enable()
        assert not NULL_TRACER.enabled


class TestNames:
    def test_labels_unique_and_ids_dense(self):
        assert len(set(NAMES)) == len(NAMES)
        assert all(isinstance(label, str) and "." in label for label in NAMES)

    def test_stage_names_are_fault_spans(self):
        for name in STAGE_NAMES:
            assert NAMES[name].startswith("fault.")
        # minor faults are excluded from the attribution denominator
        assert NAMES.index("fault.minor_alloc_wait") not in STAGE_NAMES

    def test_track_helpers(self):
        assert core_track(0) == 1
        assert track_label(TRACK_MACHINE) == "machine"
        assert track_label(core_track(3)) == "core3"


# -------------------------------------------------- byte-identity pins


class TestByteIdentity:
    def test_concurrent_traced_equals_untraced(self, recorded):
        recording, _ = recorded
        untraced = run_scenario("web-tier-zipf", cores=2, **SMALL)
        assert canonical_json(recording["payload"]) == canonical_json(untraced)

    def test_cluster_traced_equals_untraced(self):
        recording, _ = record_scenario("failover-under-load", cores=2, **SMALL)
        assert recording["payload"]["config"]["engine"] == "cluster"
        untraced = run_scenario("failover-under-load", cores=2, **SMALL)
        assert canonical_json(recording["payload"]) == canonical_json(untraced)

    def test_governed_traced_equals_untraced(self):
        recording, recorder = record_scenario("phase-shift-governed", cores=2, **SMALL)
        assert recording["payload"]["config"]["governed"] is True
        untraced = run_scenario("phase-shift-governed", cores=2, **SMALL)
        assert canonical_json(recording["payload"]) == canonical_json(untraced)
        # The recorder rode the control plane's sampler: it adopted the
        # governor's epoch cadence instead of running its own sampler.
        assert recorder._sampler is None
        assert recorder.epoch_ns == ms(1.0)
        assert len(recorder.timeseries) > 0

    @pytest.mark.parametrize("engine", ["object", "vectorized"])
    def test_fig13_traced_equals_untraced(self, engine):
        from repro.perf.profile import run_profile

        scale = dict(wss_pages=256, accesses=1200, cores=2, engine=engine)
        traced, _ = run_profile("fig13", observer=RunRecorder(), **scale)
        untraced, _ = run_profile("fig13", **scale)
        traced.pop("wall_clock_s")
        untraced.pop("wall_clock_s")
        assert canonical_json(traced) == canonical_json(untraced)

    def test_traced_recordings_identical_across_engines(self):
        from repro.perf.profile import run_profile

        recordings = {}
        for engine in ("object", "vectorized"):
            recorder = RunRecorder()
            artifact, _ = run_profile(
                "fig13",
                wss_pages=256,
                accesses=1200,
                cores=2,
                engine=engine,
                observer=recorder,
            )
            artifact.pop("wall_clock_s")
            artifact["config"].pop("engine_impl")
            recordings[engine] = recorder.finish(
                artifact, spec={"bench": "fig13"}, engine=engine, seed=42
            )
        obj, vec = recordings["object"], recordings["vectorized"]
        # Not just the payload: the instants, counters, per-epoch
        # timeseries, and stage attribution are bit-equal across
        # engines.  Spans may legitimately differ — the vectorized
        # engine additionally emits kernel.* burst-boundary spans —
        # but the fault.* stage spans must decompose identically.
        for section in ("payload", "timeseries"):
            assert canonical_json(obj[section]) == canonical_json(vec[section])
        for group in ("instants", "counters"):
            assert obj["events"][group] == vec["events"][group]
        assert attribution_rows(obj) == attribution_rows(vec)
        extra_labels = {
            NAMES[name]
            for name in set(vec["events"]["spans"]["name"])
            - set(obj["events"]["spans"]["name"])
        }
        assert all(label.startswith("kernel.") for label in extra_labels)


# ------------------------------------------------- recording document


class TestRecording:
    def test_envelope(self, recorded):
        recording, _ = recorded
        assert recording["format"] == FORMAT
        assert set(recording["provenance"]) == {"spec_hash", "code_rev", "engine", "seed"}
        assert recording["names"] == list(NAMES)
        assert recording["tracks"]["0"] == "machine"
        spans = recording["events"]["spans"]
        assert recording["totals"]["events"] == (
            len(spans["name"])
            + len(recording["events"]["instants"]["name"])
            + len(recording["events"]["counters"]["name"])
        )
        assert recording["totals"]["events"] > 0

    def test_load_recording_validates(self, recorded):
        recording, _ = recorded
        assert load_recording(recording) is recording
        with pytest.raises(ValueError, match="not a"):
            load_recording({"format": "something-else"})
        broken = dict(recording)
        del broken["events"]
        with pytest.raises(ValueError, match="events"):
            load_recording(broken)

    def test_attribution_is_exhaustive(self, recorded):
        recording, _ = recorded
        rows, attributed, fault_time = attribution_rows(recording)
        assert fault_time > 0
        # The stage spans partition fault time exactly: 100% coverage,
        # comfortably over the 95% CI gate.
        assert attributed == fault_time
        assert rows == sorted(rows, key=lambda r: -r["total_ns"])
        assert abs(sum(row["share"] for row in rows) - 1.0) < 1e-9
        labels = {row["stage"] for row in rows}
        assert labels == {NAMES[name] for name in STAGE_NAMES}

    def test_attribution_resolves_through_recording_names(self, recorded):
        # An old recording whose name table predates registry growth
        # must still attribute through its *own* table.
        recording, _ = recorded
        aged = json.loads(canonical_json(recording))
        aged["names"] = list(aged["names"]) + ["future.stage"]
        rows, attributed, fault_time = attribution_rows(aged)
        assert attributed == fault_time
        assert {row["stage"] for row in rows} == {NAMES[n] for n in STAGE_NAMES}

    def test_recorder_epoch_default_and_override(self):
        assert RunRecorder().epoch_ns == 1_000_000
        assert RunRecorder(epoch_ns=ms(2.5)).epoch_ns == 2_500_000


# ------------------------------------------------- metrics timeseries


class TestMetricsTimeseries:
    def test_counter_registry_round_trip(self, recorded):
        """Every R4-registry counter lands in the timeseries columns."""
        recording, recorder = recorded
        machine = recorder.machine
        timeseries = recorder.timeseries
        expected = {f"metrics.{key}" for key in machine.metrics.as_dict()}
        expected |= {f"cq.{key}" for key in machine.vmm.completion_queue.stats()}
        expected |= {
            "epoch",
            "at_ns",
            "epoch.accesses",
            "epoch.hits",
            "epoch.faults",
            "epoch.coverage",
            "epoch.pollution_ratio",
        }
        assert set(timeseries.columns) == expected
        # and the recording serialized exactly those columns
        assert set(recording["timeseries"]) == expected

    def test_rows_are_per_epoch(self, recorded):
        recording, recorder = recorded
        epochs = recording["timeseries"]["epoch"]
        assert len(epochs) == len(recorder.timeseries) > 0
        assert epochs == sorted(epochs)
        at_ns = recording["timeseries"]["at_ns"]
        assert at_ns == sorted(at_ns)

    def test_to_dict_round_trip_and_series(self, recorded):
        _, recorder = recorded
        data = recorder.timeseries.to_dict()
        assert MetricsTimeseries.columns_from_dict(data) == data
        assert recorder.timeseries.series("epoch") == data["epoch"]
        with pytest.raises(ValueError):
            recorder.timeseries.series("no-such-column")


# ------------------------------------------------------------ export


class TestExport:
    def test_perfetto_passes_schema_checker(self, recorded, tmp_path):
        from repro.obs.export import to_perfetto

        recording, _ = recorded
        trace = to_perfetto(recording)
        path = tmp_path / "trace.perfetto.json"
        path.write_text(json.dumps(trace))
        checker = _load_schema_checker()
        assert checker.check_trace(path) == []

    def test_perfetto_shape(self, recorded):
        from repro.obs.export import to_perfetto

        recording, _ = recorded
        trace = to_perfetto(recording)
        assert trace["otherData"] == recording["provenance"]
        events = trace["traceEvents"]
        assert len(events) == recording["totals"]["events"] + len(recording["tracks"])
        # metadata first, then data; sim ns -> trace us
        metadata = [e for e in events if e["ph"] == "M"]
        assert events[: len(metadata)] == metadata
        first_span = next(e for e in events if e["ph"] == "X")
        start_ns = recording["events"]["spans"]["start_ns"][0]
        assert first_span["ts"] == start_ns / 1e3

    def test_npz_round_trip(self, recorded, tmp_path):
        import numpy

        from repro.obs.export import write_npz

        recording, _ = recorded
        path = write_npz(recording, tmp_path / "rec")
        assert path.endswith(".npz")
        with numpy.load(path) as data:
            assert list(data["names"]) == recording["names"]
            spans = recording["events"]["spans"]
            assert data["spans.dur_ns"].dtype == numpy.int64
            assert list(data["spans.dur_ns"]) == spans["dur_ns"]
            epochs = data["timeseries.epoch"]
            assert epochs.dtype == numpy.float64
            assert list(epochs) == recording["timeseries"]["epoch"]
            provenance = {
                entry.split("=", 1)[0]: entry.split("=", 1)[1]
                for entry in data["provenance"].tolist()
            }
            assert provenance["engine"] == recording["provenance"]["engine"]


# ---------------------------------------------------------------- CLI


class TestObsCli:
    def test_record_scenario_with_check_untraced(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        assert (
            cli_main(
                [
                    "obs",
                    "record",
                    "web-tier-zipf",
                    "--cores",
                    "2",
                    "--wss-pages",
                    "64",
                    "--accesses",
                    "400",
                    "--out",
                    str(out),
                    "--check-untraced",
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "byte-identical" in printed
        recording = load_recording(json.loads(out.read_text()))
        assert recording["payload"]["scenario"] == "web-tier-zipf"

    def test_record_fig13_smoke(self, tmp_path, capsys):
        out = tmp_path / "fig13.json"
        argv = [
            "obs",
            "record",
            "fig13",
            "--cores",
            "2",
            "--wss-pages",
            "256",
            "--accesses",
            "1200",
            "--out",
            str(out),
        ]
        assert cli_main(argv) == 0
        assert "wall clock" in capsys.readouterr().out
        recording = load_recording(json.loads(out.read_text()))
        assert recording["payload"]["bench"] == "fig13"
        assert "wall_clock_s" not in recording["payload"]

    def test_record_flag_validation(self, capsys):
        assert cli_main(["obs", "record", "web-tier-zipf", "--engine", "object"]) == 2
        assert "profile targets only" in capsys.readouterr().err
        assert cli_main(["obs", "record", "no-such-scenario"]) == 2
        assert cli_main(["obs", "record", "fig13_scale", "--wss-pages", "64"]) == 2
        assert "takes no wss_pages" in capsys.readouterr().err
        assert cli_main(["obs", "record", "fig13", "--servers", "3"]) == 2
        assert "takes no servers" in capsys.readouterr().err
        # Multi-run profiles have no single machine to trace.
        assert cli_main(["obs", "record", "scenarios"]) == 2
        assert "takes no observer" in capsys.readouterr().err

    def test_top_gates_attribution(self, recording_file, capsys):
        assert (
            cli_main(["obs", "top", str(recording_file), "--min-attributed", "95"]) == 0
        )
        printed = capsys.readouterr().out
        assert "fault-time attribution" in printed
        assert "100.00%" in printed

    def test_top_gate_failure(self, recorded, tmp_path, capsys):
        recording, _ = recorded
        doctored = json.loads(canonical_json(recording))
        doctored["totals"]["fault_time_ns"] *= 10
        path = tmp_path / "doctored.json"
        path.write_text(canonical_json(doctored))
        assert cli_main(["obs", "top", str(path), "--min-attributed", "95"]) == 1
        assert "ATTRIBUTION GATE FAILED" in capsys.readouterr().out

    def test_timeline(self, recording_file, capsys):
        assert cli_main(["obs", "timeline", str(recording_file), "--limit", "5"]) == 0
        printed = capsys.readouterr().out
        assert "first 5 of" in printed
        assert "machine" in printed or "core" in printed

    def test_diff_same_recording_no_deltas(self, recording_file, capsys):
        path = str(recording_file)
        assert cli_main(["obs", "diff", path, path]) == 0
        printed = capsys.readouterr().out
        assert "->" not in printed  # nothing changed, nothing printed

    def test_diff_reports_stage_deltas(self, recorded, recording_file, tmp_path, capsys):
        recording, _ = recorded
        changed = json.loads(canonical_json(recording))
        spans = changed["events"]["spans"]
        spans["dur_ns"] = [dur * 2 for dur in spans["dur_ns"]]
        changed["provenance"]["code_rev"] = "other-rev"
        new = tmp_path / "new.json"
        new.write_text(canonical_json(changed))
        assert cli_main(["obs", "diff", str(recording_file), str(new)]) == 0
        printed = capsys.readouterr().out
        assert "[stages]" in printed
        assert "total_ns" in printed
        assert "code_rev" in printed

    def test_export_perfetto_and_npz(self, recording_file, tmp_path, capsys):
        perfetto = tmp_path / "trace.json"
        npz = tmp_path / "trace.npz"
        assert (
            cli_main(
                [
                    "obs",
                    "export",
                    str(recording_file),
                    "--perfetto",
                    str(perfetto),
                    "--npz",
                    str(npz),
                ]
            )
            == 0
        )
        assert "trace events" in capsys.readouterr().out
        checker = _load_schema_checker()
        assert checker.check_trace(perfetto) == []
        assert npz.exists()

    def test_export_requires_a_format(self, recording_file, capsys):
        assert cli_main(["obs", "export", str(recording_file)]) == 2
        assert cli_main(["obs", "export", "missing.json", "--perfetto", "x"]) == 1
        assert cli_main(["obs", "top", "missing.json"]) == 1

    def test_rejects_non_recording_json(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "other"}')
        assert cli_main(["obs", "top", str(bogus)]) == 1
        assert "error" in capsys.readouterr().err


# ---------------------------------------------------- service --trace


def traced_job(**overrides) -> ScenarioJob:
    spec = dict(scenario="web-tier-zipf", cores=2, trace=True, **SMALL)
    spec.update(overrides)
    return ScenarioJob(**spec)


class TestServiceTrace:
    def test_trace_flag_round_trips_but_not_hashed(self):
        job = traced_job()
        assert job_from_dict(job.to_dict()) == job
        assert job.to_dict()["trace"] is True
        # tracing never changes results, so traced/untraced submissions
        # share a run key (like SweepJob.pool)
        assert job.spec_hash() == traced_job(trace=False).spec_hash()

    def test_traced_run_stores_recording_extra(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_REV", "rev-a")
        service = RunService(tmp_path, code_rev="rev-a")
        record = service.submit(traced_job())
        service.process_one()
        _, payload = service.result(record.id)
        recording = load_recording(service.store.get_extra(record.run_key, "trace"))
        assert canonical_json(recording["payload"]) == canonical_json(payload)
        assert recording["provenance"]["spec_hash"] == record.spec_hash
        assert recording["provenance"]["code_rev"] == "rev-a"
        # payload identical to an untraced inline run of the same spec
        inline = run_scenario("web-tier-zipf", cores=2, **SMALL)
        assert canonical_json(payload) == canonical_json(inline)

    def test_traced_store_answers_untraced_and_traced(self, tmp_path):
        service = RunService(tmp_path, code_rev="rev-a")
        service.submit(traced_job())
        service.process_one()
        assert service.submit(traced_job()).cache_hit
        assert service.submit(traced_job(trace=False)).cache_hit

    def test_untraced_store_reruns_for_trace(self, tmp_path):
        service = RunService(tmp_path, code_rev="rev-a")
        first = service.submit(traced_job(trace=False))
        service.process_one()
        resubmitted = service.submit(traced_job())
        assert not resubmitted.cache_hit
        service.process_one()
        # the re-store added the trace extra under the same run key
        assert resubmitted.run_key == first.run_key
        load_recording(service.store.get_extra(first.run_key, "trace"))
        assert service.submit(traced_job()).cache_hit

    def test_gc_roots_trace_extras(self, tmp_path):
        service = RunService(tmp_path, code_rev="rev-a")
        record = service.submit(traced_job())
        service.process_one()
        assert service.store.gc() == []
        # the trace blob survived gc and still reads back verified
        load_recording(service.store.get_extra(record.run_key, "trace"))

    def test_verify_covers_trace_blob(self, tmp_path):
        service = RunService(tmp_path, code_rev="rev-a")
        record = service.submit(traced_job())
        service.process_one()
        assert service.store.verify(record.run_key)
        blob = service.store.meta(record.run_key)["extras"]["trace"]
        blob_path = service.store.blobs_dir / blob
        blob_path.write_bytes(blob_path.read_bytes()[:-2] + b"X\n")
        assert not service.store.verify(record.run_key)

    def test_missing_extra_raises_key_error(self, tmp_path):
        service = RunService(tmp_path, code_rev="rev-a")
        record = service.submit(traced_job(trace=False))
        service.process_one()
        with pytest.raises(KeyError):
            service.store.get_extra(record.run_key, "trace")

    def test_cli_submit_trace_result_trace_out(self, tmp_path, capsys):
        root = str(tmp_path)
        argv = [
            "service",
            "submit",
            "web-tier-zipf",
            "--root",
            root,
            "--cores",
            "2",
            "--wss-pages",
            "64",
            "--accesses",
            "400",
            "--trace",
            "--json",
        ]
        assert cli_main(argv) == 0
        job_id = json.loads(capsys.readouterr().out)["id"]
        assert cli_main(["service", "worker", "--root", root, "--max-jobs", "1"]) == 0
        capsys.readouterr()
        trace_out = tmp_path / "trace.json"
        assert (
            cli_main(
                ["service", "result", job_id, "--root", root]
                + ["--trace-out", str(trace_out)]
            )
            == 0
        )
        recording = load_recording(json.loads(trace_out.read_text()))
        assert recording["payload"]["scenario"] == "web-tier-zipf"

    def test_cli_trace_out_without_trace_fails(self, tmp_path, capsys):
        root = str(tmp_path)
        argv = [
            "service",
            "submit",
            "web-tier-zipf",
            "--root",
            root,
            "--cores",
            "2",
            "--wss-pages",
            "64",
            "--accesses",
            "400",
            "--json",
        ]
        assert cli_main(argv) == 0
        job_id = json.loads(capsys.readouterr().out)["id"]
        assert cli_main(["service", "worker", "--root", root, "--max-jobs", "1"]) == 0
        capsys.readouterr()
        out = tmp_path / "trace.json"
        code = cli_main(
            ["service", "result", job_id, "--root", root, "--trace-out", str(out)]
        )
        assert code == 2
        assert "--trace" in capsys.readouterr().err

    def test_cli_sweep_trace_rejected(self, tmp_path, capsys):
        argv = [
            "service",
            "submit",
            "web-tier-zipf",
            "--root",
            str(tmp_path),
            "--sweep",
            "--trace",
        ]
        assert cli_main(argv) == 2
        assert "scenario jobs only" in capsys.readouterr().err
