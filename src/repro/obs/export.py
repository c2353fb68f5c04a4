"""Recording exporters: Chrome/Perfetto ``trace_event`` JSON and `.npz`.

Both exporters consume the ``repro-obs-recording/1`` document built by
:class:`~repro.obs.record.RunRecorder` and embed its provenance (spec
hash, code revision, engine, seed) so an exported trace can always be
tied back to the exact run that produced it.  The mapping to Perfetto
tracks and the `.npz` array layout are specified in
``docs/trace-format.md``; ``tools/check_trace_schema.py`` validates
exported Perfetto JSON in CI.
"""

from __future__ import annotations

__all__ = ["to_perfetto", "to_npz_arrays", "write_npz"]

#: One synthetic process per recording; tracks become Perfetto threads.
_PID = 1


def to_perfetto(recording: dict) -> dict:
    """Chrome/Perfetto ``trace_event`` JSON (object form).

    * spans  -> complete events (``ph: "X"``) on their track's thread;
    * instants -> ``ph: "i"`` with thread scope and the value in args;
    * counters -> ``ph: "C"``;
    * tracks -> ``thread_name`` metadata events (``ph: "M"``).

    Sim-time nanoseconds map to trace microseconds (``ts = ns / 1e3``),
    Perfetto's native unit.
    """
    names = recording["names"]
    events: list[dict] = []
    for track, label in sorted(recording["tracks"].items(), key=lambda kv: int(kv[0])):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": int(track),
                "args": {"name": label},
            }
        )
    spans = recording["events"]["spans"]
    for name, track, start, dur in zip(
        spans["name"], spans["track"], spans["start_ns"], spans["dur_ns"]
    ):
        events.append(
            {
                "ph": "X",
                "name": names[name],
                "cat": names[name].split(".", 1)[0],
                "pid": _PID,
                "tid": track,
                "ts": start / 1e3,
                "dur": dur / 1e3,
            }
        )
    instants = recording["events"]["instants"]
    for name, track, at, value in zip(
        instants["name"], instants["track"], instants["at_ns"], instants["value"]
    ):
        events.append(
            {
                "ph": "i",
                "s": "t",
                "name": names[name],
                "cat": names[name].split(".", 1)[0],
                "pid": _PID,
                "tid": track,
                "ts": at / 1e3,
                "args": {"value": value},
            }
        )
    counters = recording["events"]["counters"]
    for name, track, at, value in zip(
        counters["name"], counters["track"], counters["at_ns"], counters["value"]
    ):
        events.append(
            {
                "ph": "C",
                "name": names[name],
                "pid": _PID,
                "tid": track,
                "ts": at / 1e3,
                "args": {"value": value},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": dict(recording["provenance"]),
    }


def to_npz_arrays(recording: dict) -> dict:
    """The array dict :func:`write_npz` saves (numpy arrays)."""
    import numpy

    arrays: dict = {
        "names": numpy.array(recording["names"]),
        "provenance": numpy.array(
            sorted(f"{key}={value}" for key, value in recording["provenance"].items())
        ),
    }
    for group, columns in recording["events"].items():
        for column, values in columns.items():
            arrays[f"{group}.{column}"] = numpy.asarray(values, dtype=numpy.int64)
    for column, values in recording.get("timeseries", {}).items():
        arrays[f"timeseries.{column}"] = numpy.asarray(values, dtype=numpy.float64)
    return arrays


def write_npz(recording: dict, path) -> str:
    """Save the recording as a compressed ``.npz``; returns the path.

    ``savez_compressed`` appends ``.npz`` when the name lacks it, so
    the returned path is the file actually written.
    """
    arrays = to_npz_arrays(recording)
    import numpy

    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    numpy.savez_compressed(path, **arrays)
    return path
