"""The strict spec codec (:mod:`repro.codec`) over every spec it serves.

Three things are pinned here:

* encoding is byte-compatible with the hand-written codecs it replaced
  — the ``spec_hash`` of every registered scenario and of three
  representative jobs was recorded before the switch;
* every generated spec round-trips through ``json.dumps``/``loads``;
* every generated typo, dropped required key and type swap raises
  :class:`SpecError` naming the offending JSON path.
"""

import dataclasses
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.codec import Spec, SpecError
from repro.provenance import spec_hash
from repro.scenarios import get_scenario, scenario_names
from repro.scenarios.spec import (
    WORKLOAD_KINDS,
    ArrivalSpec,
    BalancerSpec,
    ControlSpec,
    FailureSpec,
    GovernorSpec,
    MemoryPhase,
    Scenario,
    TenantSpec,
)
from repro.service import JobQueue, JobRecord, ScenarioJob, SweepJob, job_from_dict
from repro.service.queue import STATES

SMALL = dict(wss_pages=64, total_accesses=400)

#: ``spec_hash(get_scenario(name).to_dict())`` at the default scale,
#: recorded with the hand-written per-class codecs.
SCENARIO_SPEC_HASHES = {
    "adaptive-colocation": "4fed622ade23d76410bc787518df0e51cb29d2b75fa96f9ef36973fc57d6809c",
    "analytics-batch": "8c1c61efec8e776d605bc4b47f88b1505b62d8ef023d548b138b214ed502a7b9",
    "failover-under-load": "d2fc132701e50ed93c853b9930b6f15886d4d8375717db1ac09b926473ff05ab",
    "kitchen-sink": "22b7ff6a993c44ff0806ad9808006fa68781379ec4a8c1fa1e946772bc47c6de",
    "llm-inference-paging": "42a5ee3ca59779e47984febb6db6c4ebaf48633f4d00aadbb729c995cc2ef9ad",
    "memcached-storm": "d7c384e71d8893892b0b0cfab91e7a6a4579c425b7df9237c9b992680668511d",
    "noisy-neighbor": "11d2d72297b4ee4420259b7f90b581216972f3616a427b83771554b795405921",
    "noisy-neighbor-balanced": "4950085cace322dad7a158c038c1c3bd8e6193748b56c4e0ff68b6263e4dc4b6",
    "phase-shift": "20d8f43fe79fe38fd7799d42b1a1cfa5f896312810234c2b5d22ac0e724225de",
    "phase-shift-governed": "b0f1e74291aa99673c03486774b2e229e37397bb79b1099acce09c2b8d1c6e79",
    "stride-adversary": "d35f1b0d474230293df329527fdc0204fcda7658b4a22d333cfb91dab2a720c3",
    "web-tier-zipf": "cd87fbbf60f57567604fc29141c2c99623ff7ed13919acbc0af2b5b4b3a4eb81",
}


def pinned_jobs():
    """Three jobs covering both kinds, a wrapped Scenario and a mixed sweep."""
    return {
        "scenario-by-name": ScenarioJob(
            scenario="web-tier-zipf", cores=2, prefetcher="leap", servers=2, seed=7, **SMALL
        ),
        "scenario-traced": ScenarioJob(
            scenario=get_scenario("kitchen-sink", **SMALL), cores=2, servers=3, trace=True
        ),
        "sweep-mixed": SweepJob(
            scenarios=(
                "web-tier-zipf",
                get_scenario("phase-shift-governed", **SMALL).to_dict(),
            ),
            cores=(1, 2),
            servers=(2,),
            prefetchers=("leap", "readahead"),
            pool=2,
            seed=9,
            **SMALL,
        ),
    }


#: (spec_hash, run_key("rev")) of :func:`pinned_jobs`, recorded with the
#: hand-written per-class codecs.
JOB_PINS = {
    "scenario-by-name": (
        "8279bb6713861f073bcae8b772d63933b8d089d9a91310a09dd00e6b025d6dde",
        "197db0a596546cfe1cfd20012002e98655083d3ae37f201fee9a2a1f8602e345",
    ),
    "scenario-traced": (
        "e9245db76be6b8fbe4bb54c9ff2ab1de2534c9e2ea7283fd3f6a27b23fbdb9e7",
        "de9269cba1703b5b177c64d2fe5bceb93375fbba6f557f8f6c913080eb705988",
    ),
    "sweep-mixed": (
        "530264879e3969d371e642621409dcc7fbf50a01ee258c9d93a137f4bd2a647f",
        "91bf8876e0f83dab64db5fc4d10b966a56eec082b47d604fd700e3017a48c0cd",
    ),
}


class TestEncodingPins:
    def test_every_registered_scenario_is_pinned(self):
        assert sorted(SCENARIO_SPEC_HASHES) == scenario_names()

    @pytest.mark.parametrize("name", sorted(SCENARIO_SPEC_HASHES))
    def test_scenario_spec_hash(self, name):
        scenario = get_scenario(name)
        assert spec_hash(scenario.to_dict()) == SCENARIO_SPEC_HASHES[name]
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    @pytest.mark.parametrize("name", sorted(JOB_PINS))
    def test_job_spec_hash_and_run_key(self, name):
        job = pinned_jobs()[name]
        digest, key = JOB_PINS[name]
        assert job.spec_hash() == digest
        assert job.run_key("rev") == key
        assert job_from_dict(json.loads(json.dumps(job.to_dict()))) == job

    def test_scenario_family_omits_empty_defaults(self):
        tenant = TenantSpec(name="a", workload="random", wss_pages=8)
        assert tenant.to_dict() == {
            "name": "a",
            "workload": "random",
            "wss_pages": 8,
            "weight": 1.0,
            "write_fraction": 0.0,
        }

    def test_jobs_and_records_write_every_field(self):
        data = ScenarioJob(scenario="web-tier-zipf").to_dict()
        assert data["kind"] == "scenario"
        assert data["prefetcher"] is None and data["wss_pages"] is None
        record = JobRecord(id="j", spec=data, run_key="k", spec_hash="s", seed=1, code_rev="r")
        assert set(record.to_dict()) == {f.name for f in dataclasses.fields(JobRecord)}

    def test_values_are_written_as_stored(self):
        # An int in a float field is not coerced on the way out.
        assert MemoryPhase(at_ms=2, memory_fraction=1).to_dict() == {
            "at_ms": 2,
            "memory_fraction": 1,
        }


def web_tier_with_typos() -> dict:
    """A tenant key ``acesses`` and a top-level ``totl_accesses``."""
    data = get_scenario("web-tier-zipf").to_dict()
    data["tenants"][0]["acesses"] = 1_000
    data["totl_accesses"] = data.pop("total_accesses")
    return data


class TestStrictDecode:
    def test_misspelled_keys_name_the_first_path(self):
        with pytest.raises(SpecError, match=r"^tenants\[0\]\.acesses: unknown key$") as info:
            Scenario.from_dict(web_tier_with_typos())
        assert info.value.path == "tenants[0].acesses"

    def test_top_level_typo(self):
        data = get_scenario("web-tier-zipf").to_dict()
        data["totl_accesses"] = data.pop("total_accesses")
        with pytest.raises(SpecError, match="^totl_accesses: unknown key$"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"think_ns": "64"}, "think_ns: expected integer, got string"),
            ({"think_ns": 1.5}, "think_ns: expected integer, got number"),
            ({"think_ns": True}, "think_ns: expected integer, got boolean"),
            ({"jitter": 1}, "jitter: expected boolean, got integer"),
            ({"burst_accesses": [1, 2, 3]}, r"burst_accesses: expected 2 items, got 3"),
            ({"burst_accesses": {"low": 1}}, "burst_accesses: expected array, got object"),
            ({"calm_accesses": [1, "2"]}, r"calm_accesses\[1\]: expected integer, got string"),
        ],
    )
    def test_wrong_types_are_never_coerced(self, data, message):
        with pytest.raises(SpecError, match=f"^{message}$"):
            ArrivalSpec.from_dict(data)

    def test_int_accepted_for_float_and_stored_as_float(self):
        phase = MemoryPhase.from_dict({"at_ms": 2, "memory_fraction": 1})
        assert isinstance(phase.at_ms, float) and isinstance(phase.memory_fraction, float)
        with pytest.raises(SpecError, match="^at_ms: expected number, got boolean$"):
            MemoryPhase.from_dict({"at_ms": False, "memory_fraction": 1})

    def test_missing_required_key(self):
        with pytest.raises(SpecError, match="^server_id: missing required key$"):
            FailureSpec.from_dict({"at_ms": 1.0})

    def test_defaults_come_from_the_dataclass(self):
        assert ArrivalSpec.from_dict({}) == ArrivalSpec()
        assert GovernorSpec.from_dict({}) == GovernorSpec()
        assert job_from_dict({"kind": "sweep", "scenarios": ["x"]}) == SweepJob(scenarios=("x",))

    def test_validation_errors_carry_the_path(self):
        data = get_scenario("web-tier-zipf").to_dict()
        data["tenants"][1]["wss_pages"] = 0
        with pytest.raises(SpecError, match=r"^tenants\[1\]: tenant .* must be positive$"):
            Scenario.from_dict(data)

    def test_opaque_objects_stay_opaque(self):
        tenant = TenantSpec.from_dict(
            {"name": "a", "workload": "stride", "wss_pages": 8, "params": {"anything": [1]}}
        )
        assert tenant.params == {"anything": [1]}
        job = job_from_dict({"kind": "scenario", "scenario": {"free": "form"}})
        assert job.scenario == {"free": "form"}

    def test_job_kind_is_checked(self):
        data = ScenarioJob(scenario="x").to_dict()
        with pytest.raises(SpecError, match="^kind: expected 'sweep', got 'scenario'$"):
            SweepJob.from_dict(data)
        del data["kind"]
        with pytest.raises(SpecError, match="^kind: unknown job kind None$"):
            job_from_dict(data)
        with pytest.raises(SpecError, match="^kind: expected 'scenario', got None$"):
            ScenarioJob.from_dict(data)

    def test_not_an_object(self):
        with pytest.raises(SpecError, match="^expected object, got array$"):
            ControlSpec.from_dict([])


# -- generated specs ---------------------------------------------------------

names = st.text(alphabet="abcdefghij-", min_size=1, max_size=8)
counts = st.integers(0, 10**6)
positive = st.integers(1, 10**6)


def floats(low, high, **kwargs):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def ranges(draw):
    low = draw(st.integers(1, 500))
    return (low, draw(st.integers(low, 1_000)))


arrivals = st.builds(
    ArrivalSpec,
    think_ns=counts,
    burst_think_ns=counts,
    burst_accesses=ranges(),
    calm_accesses=ranges(),
    jitter=st.booleans(),
)


@st.composite
def tenant_lists(draw):
    tenant_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    return tuple(
        TenantSpec(
            name=name,
            workload=draw(st.sampled_from(sorted(WORKLOAD_KINDS) + ["trace"])),
            wss_pages=draw(positive),
            accesses=draw(st.none() | positive),
            weight=draw(floats(0.0, 100.0, exclude_min=True)),
            params=draw(st.dictionaries(names, st.integers(-5, 5) | names, max_size=3)),
            arrival=draw(st.none() | arrivals),
            write_fraction=draw(floats(0.0, 1.0)),
        )
        for name in tenant_names
    )


@st.composite
def governors(draw):
    dwell = draw(st.integers(1, 10))
    return GovernorSpec(
        policies=tuple(draw(st.lists(names, min_size=1, max_size=4, unique=True))),
        min_dwell_epochs=dwell,
        score_margin=draw(floats(0.0, 5.0)),
        probe_score=draw(floats(0.0, 1.0)),
        ewma_alpha=draw(floats(0.0, 1.0, exclude_min=True)),
        min_faults=draw(st.integers(1, 100)),
        stale_epochs=draw(st.integers(dwell, 50)),
    )


@st.composite
def balancers(draw):
    floor = draw(floats(0.01, 0.9))
    return BalancerSpec(
        step_fraction=draw(floats(0.0, 0.5, exclude_min=True)),
        floor_fraction=floor,
        ceiling_fraction=draw(floats(floor, 1.0, exclude_min=True)),
        pressure_gap=draw(floats(0.0, 10.0)),
    )


@st.composite
def controls(draw):
    governor = draw(st.none() | governors())
    balancer = draw(balancers() if governor is None else st.none() | balancers())
    return ControlSpec(
        epoch_ms=draw(floats(0.0, 100.0, exclude_min=True)),
        governor=governor,
        balancer=balancer,
    )


fractions = floats(0.0, 1.0, exclude_min=True)
times = floats(0.0, 1e4) | st.integers(0, 10**4)

scenarios = st.builds(
    Scenario,
    name=names,
    description=st.text(max_size=20),
    tenants=tenant_lists(),
    total_accesses=positive,
    memory_fraction=fractions,
    memory_schedule=st.lists(
        st.builds(MemoryPhase, at_ms=times, memory_fraction=fractions), max_size=3
    ).map(tuple),
    popularity_skew=st.none() | floats(0.0, 3.0, exclude_min=True),
    prefetcher=st.none() | names,
    failures=st.lists(
        st.builds(
            FailureSpec,
            at_ms=times,
            server_id=st.integers(0, 8),
            action=st.sampled_from(["fail", "recover"]),
        ),
        max_size=3,
    ).map(tuple),
    allow_migration=st.booleans(),
    control=st.none() | controls(),
)

optional_counts = st.none() | positive
scenario_refs = names | scenarios

scenario_jobs = st.builds(
    ScenarioJob,
    scenario=scenario_refs,
    seed=counts,
    cores=st.integers(1, 64),
    servers=st.integers(0, 8),
    prefetcher=st.none() | names,
    wss_pages=optional_counts,
    total_accesses=optional_counts,
    trace=st.booleans(),
)

sweep_jobs = st.builds(
    SweepJob,
    scenarios=st.lists(scenario_refs, min_size=1, max_size=2).map(tuple),
    cores=st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple),
    servers=st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple),
    prefetchers=st.lists(names, min_size=1, max_size=3).map(tuple),
    seed=counts,
    wss_pages=optional_counts,
    total_accesses=optional_counts,
    max_total_accesses=optional_counts,
    pool=st.integers(1, 8),
)

job_records = st.builds(
    JobRecord,
    id=names,
    spec=(scenario_jobs | sweep_jobs).map(lambda job: job.to_dict()),
    run_key=names,
    spec_hash=names,
    seed=counts,
    code_rev=names,
    state=st.sampled_from(STATES),
    cache_hit=st.booleans(),
    submitted_at=floats(0.0, 2e9),
    started_at=st.none() | floats(0.0, 2e9),
    finished_at=st.none() | floats(0.0, 2e9),
    error=st.none() | st.text(max_size=20),
    worker_pid=st.none() | positive,
    cell_pids=st.lists(positive, max_size=3),
)

any_spec = scenarios | scenario_jobs | sweep_jobs | job_records


def decode_like(spec: Spec, data):
    return job_from_dict(data) if spec.kind is not None else type(spec).from_dict(data)


def locations(spec: Spec, data: dict, path: str = ""):
    """Every spec-level value in *spec*'s encoding *data*.

    Yields ``(path, container, key, spec_class)``: values inside opaque
    objects (``params``, a job's scenario dict, a record's ``spec``) are
    not spec-level and are skipped.
    """
    for key, value in data.items():
        if key == "kind":
            continue
        where = f"{path}.{key}" if path else key
        yield where, data, key, type(spec)
        attr = getattr(spec, key)
        if isinstance(attr, Spec):
            yield from locations(attr, value, where)
        elif isinstance(attr, (tuple, list)):
            for index, (item_spec, item) in enumerate(zip(attr, value)):
                yield f"{where}[{index}]", value, index, None
                if isinstance(item_spec, Spec):
                    yield from locations(item_spec, item, f"{where}[{index}]")


def required_keys(spec: Spec, path: str = ""):
    """``(path, parent path, key)`` of every required key in the encoding."""
    if spec.kind is not None and not path:
        yield "kind", "kind"
    for field in dataclasses.fields(spec):
        where = f"{path}.{field.name}" if path else field.name
        if field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING:
            yield where, field.name
        attr = getattr(spec, field.name)
        if isinstance(attr, Spec):
            yield from required_keys(attr, where)
        elif isinstance(attr, tuple):
            for index, item in enumerate(attr):
                if isinstance(item, Spec):
                    yield from required_keys(item, f"{where}[{index}]")


def lookup(data, path: str):
    """The container holding the last step of *path* in *data*."""
    steps = path.replace("[", ".[").split(".")
    for step in steps[:-1]:
        data = data[int(step[1:-1])] if step.startswith("[") else data[step]
    return data


def swap_type(value, variant: int):
    """A value of another JSON type: bool↔int, str↔int, list↔object."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return (str(value), True)[variant % 2]
    if isinstance(value, float):
        return (str(value), value > 0)[variant % 2]
    if isinstance(value, str):
        return len(value)
    if isinstance(value, list):
        return {}
    if isinstance(value, dict):
        return list(value)
    return []  # None in an optional field


def misspell(key: str, variant: int, position: int) -> str:
    position %= len(key)
    if variant == 0:
        return key[:position] + key[position + 1 :]
    if variant == 1:
        return key[:position] + key[position] + key[position:]
    return key + "s"


class TestGeneratedSpecs:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(spec=any_spec)
    def test_round_trip_through_json(self, spec):
        data = json.loads(json.dumps(spec.to_dict()))
        rebuilt = decode_like(spec, data)
        assert rebuilt == spec
        assert rebuilt.to_dict() == spec.to_dict()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(spec=any_spec, pick=st.integers(0, 10**6), variant=st.integers(0, 2),
           position=st.integers(0, 50))
    def test_typo_names_its_path(self, spec, pick, variant, position):
        data = json.loads(json.dumps(spec.to_dict()))
        keyed = [loc for loc in locations(spec, data) if isinstance(loc[2], str)]
        path, container, key, owner = keyed[pick % len(keyed)]
        typo = misspell(key, variant, position)
        valid = {field.name for field in dataclasses.fields(owner)} | {"kind"}
        assume(typo not in valid)
        renamed = {(typo if name == key else name): value for name, value in container.items()}
        container.clear()
        container.update(renamed)
        expected = path[: len(path) - len(key)] + typo
        with pytest.raises(SpecError) as info:
            decode_like(spec, data)
        assert info.value.path == expected
        assert str(info.value) == f"{expected}: unknown key"

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(spec=any_spec, pick=st.integers(0, 10**6))
    def test_dropped_required_key_names_its_path(self, spec, pick):
        data = json.loads(json.dumps(spec.to_dict()))
        required = list(required_keys(spec))
        path, key = required[pick % len(required)]
        del lookup(data, path)[key]
        with pytest.raises(SpecError) as info:
            type(spec).from_dict(data)
        assert info.value.path == path
        assert str(info.value).startswith(f"{path}: ")

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(spec=any_spec, pick=st.integers(0, 10**6), variant=st.integers(0, 1))
    def test_type_swap_names_its_path(self, spec, pick, variant):
        data = json.loads(json.dumps(spec.to_dict()))
        found = list(locations(spec, data))
        path, container, key, _ = found[pick % len(found)]
        container[key] = swap_type(container[key], variant)
        with pytest.raises(SpecError) as info:
            decode_like(spec, data)
        assert info.value.path == path
        assert "expected" in str(info.value)


# -- queue records and the CLI -------------------------------------------------


def record(job_id="0000000000001-aaaaaaaa", **overrides) -> JobRecord:
    fields = dict(
        id=job_id,
        spec=ScenarioJob(scenario="web-tier-zipf", cores=2, **SMALL).to_dict(),
        run_key="k" * 64,
        spec_hash="s" * 64,
        seed=42,
        code_rev="rev",
    )
    fields.update(overrides)
    return JobRecord(**fields)


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (lambda data: data.update(wrker_pid=1), "wrker_pid: unknown key"),
        (lambda data: data.update(seed="42"), "seed: expected integer, got string"),
        (lambda data: data.pop("code_rev"), "code_rev: missing required key"),
    ],
)
def test_queue_reads_reject_corrupt_records(tmp_path, corrupt, field):
    queue = JobQueue(tmp_path)
    queue.submit(record())
    path = tmp_path / "queue" / "pending" / "0000000000001-aaaaaaaa.json"
    data = json.loads(path.read_text())
    corrupt(data)
    path.write_text(json.dumps(data))
    message = f"^{path}: {field}$"
    with pytest.raises(SpecError, match=message):
        queue.get("0000000000001-aaaaaaaa")
    with pytest.raises(SpecError, match=message):
        queue.jobs("pending")
    with pytest.raises(SpecError, match=message.replace("pending", "running")):
        queue.claim()


def test_record_round_trips_through_the_queue(tmp_path):
    queue = JobQueue(tmp_path)
    submitted = queue.submit(record(cell_pids=[3, 4], error="boom"))
    assert queue.get(submitted.id) == submitted


def test_submit_of_misspelled_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "web.json"
    path.write_text(json.dumps(web_tier_with_typos()))
    root = str(tmp_path / "svc")
    assert main(["service", "submit", str(path), "--root", root]) == 2
    assert "tenants[0].acesses: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "svc").exists()
