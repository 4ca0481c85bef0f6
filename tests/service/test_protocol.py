"""Wire protocol: run serialization roundtrips and eager validation."""

import dataclasses
import json

import pytest

from repro.experiments.config import TINY
from repro.experiments.engine import (
    KIND_ALONE,
    KIND_MECHANISM,
    KIND_PROFILE,
    PlannedRun,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    run_from_wire,
    run_to_wire,
)
from repro.workloads.mixes import make_mixes

SC = dataclasses.replace(TINY, name="unit")


def sample_runs() -> list[PlannedRun]:
    mix = make_mixes("pref_agg", 1, seed=7)[0]
    return [
        PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="cmm-a"),
        PlannedRun(KIND_ALONE, SC, bench="429.mcf"),
        PlannedRun(KIND_PROFILE, SC, bench="429.mcf", way_sweep=(1, 2, 4)),
        PlannedRun(KIND_ALONE, dataclasses.replace(SC, alone_accesses=2048), bench="433.milc"),
        PlannedRun(KIND_MECHANISM, SC, mix=mix, mechanism="pref-cp",
                   params={"partition_factor": 0.5}),
    ]


class TestRoundtrip:
    @pytest.mark.parametrize("idx", range(5))
    def test_key_survives_the_wire(self, idx):
        run = sample_runs()[idx]
        restored = run_from_wire(run_to_wire(run))
        assert restored == run
        assert restored.key() == run.key()
        assert restored.kind == run.kind
        assert restored.label == run.label

    def test_params_travel_only_when_set(self):
        runs = sample_runs()
        assert all("params" not in run_to_wire(r) for r in runs[:4])
        assert run_to_wire(runs[4])["params"] == {"partition_factor": 0.5}
        line = encode_line(run_to_wire(runs[4]))
        assert run_from_wire(decode_line(line)) == runs[4]

    def test_wire_objects_are_json_and_line_safe(self):
        for run in sample_runs():
            wire = run_to_wire(run)
            json.dumps(wire)  # must not raise
            assert decode_line(encode_line(wire)) == wire

    def test_custom_scale_travels_whole(self):
        sc = dataclasses.replace(TINY, name="custom", alone_accesses=1234)
        run = PlannedRun(KIND_ALONE, sc, bench="433.milc")
        restored = run_from_wire(run_to_wire(run))
        assert restored.sc == sc
        first = run_to_wire(run)
        assert first["scale"] == dataclasses.asdict(sc)
        assert list(first["scale"]) == [f.name for f in dataclasses.fields(sc)]
        first["scale"]["alone_accesses"] = 1
        assert run_to_wire(run)["scale"] == dataclasses.asdict(sc)  # a fresh copy each call


def _malformed(run_index: int, **patch) -> dict:
    """``sample_runs()[run_index]`` on the wire with ``patch`` applied; a
    ``scale__<field>`` or ``mix__<field>`` name patches a nested field."""
    wire = run_to_wire(sample_runs()[run_index])
    for path, value in patch.items():
        *parent, field = path.split("__")
        target = wire
        for name in parent:
            target = target[name]
        target[field] = value
    return wire


#: Wire runs with a field of the wrong type or range, or an unknown benchmark name.
MALFORMED_RUNS = [
    pytest.param(_malformed(1, scale__llc_scale="16"), id="scale-str"),
    pytest.param(_malformed(1, scale__quantum=[512]), id="scale-list"),
    pytest.param(_malformed(1, scale__n_cores=True), id="scale-bool"),
    pytest.param(_malformed(1, scale__name=7), id="scale-name-int"),
    pytest.param(_malformed(0, mix__seed=[1]), id="mix-seed-list"),
    pytest.param(_malformed(0, mix__seed="1"), id="mix-seed-str"),
    pytest.param(_malformed(0, mix__name=3), id="mix-name-int"),
    pytest.param(_malformed(0, mix__category=None), id="mix-category-null"),
    pytest.param(_malformed(0, mix__benchmarks=["nope"] * 8), id="mix-unknown-bench"),
    pytest.param(_malformed(0, mix__benchmarks=[["429.mcf"]] * 8), id="mix-bench-lists"),
    pytest.param(_malformed(0, mix__benchmarks="429.mcf"), id="mix-bench-str"),
    pytest.param(_malformed(1, bench="nope"), id="alone-unknown-bench"),
    pytest.param(_malformed(2, bench="nope"), id="profile-unknown-bench"),
    pytest.param(_malformed(1, bench=["429.mcf"]), id="bench-list"),
    pytest.param(_malformed(2, way_sweep=[[1], 2]), id="way-sweep-lists"),
    pytest.param(_malformed(2, way_sweep=[1, "2"]), id="way-sweep-str"),
    pytest.param(_malformed(2, way_sweep=4), id="way-sweep-int"),
    pytest.param(_malformed(0, mechanism=["cmm-a"]), id="mechanism-list"),
    pytest.param(_malformed(4, params={"no_such_knob": 1}), id="params-unknown-name"),
    pytest.param(_malformed(4, params={"partition_factor": [0.5]}), id="params-non-scalar"),
    pytest.param(_malformed(4, params=[["partition_factor", 0.5]]), id="params-list"),
    pytest.param(_malformed(1, params={"partition_factor": 0.5}), id="params-on-alone"),
    pytest.param(_malformed(0, params={"variant": "b"}), id="params-variant"),
    pytest.param(_malformed(4, params={"partition_factor": "x"}), id="params-factor-str"),
    pytest.param(_malformed(4, params={"partition_factor": -3.0}), id="params-factor-negative"),
    pytest.param(_malformed(0, params={"selection_margin": "a"}), id="params-margin-str"),
    pytest.param(_malformed(0, params={"max_exhaustive": -1}), id="params-exhaustive-negative"),
    pytest.param(_malformed(0, mechanism="dunn", params={"k": 0}), id="params-dunn-k-zero"),
]


class TestValidation:
    def test_missing_kind_rejected(self):
        with pytest.raises(ProtocolError, match="kind"):
            run_from_wire({"v": PROTOCOL_VERSION, "scale": dataclasses.asdict(SC)})

    def test_unknown_kind_rejected(self):
        wire = run_to_wire(sample_runs()[1]) | {"kind": "bogus"}
        with pytest.raises(ProtocolError, match="unknown run kind"):
            run_from_wire(wire)

    def test_wrong_wire_version_rejected(self):
        wire = run_to_wire(sample_runs()[1]) | {"v": 999}
        with pytest.raises(ProtocolError, match="version"):
            run_from_wire(wire)

    def test_mechanism_without_mix_rejected(self):
        wire = run_to_wire(sample_runs()[0])
        del wire["mix"]
        with pytest.raises(ProtocolError, match="mix"):
            run_from_wire(wire)

    def test_alone_without_bench_rejected(self):
        wire = run_to_wire(sample_runs()[1])
        del wire["bench"]
        with pytest.raises(ProtocolError, match="bench"):
            run_from_wire(wire)

    def test_unknown_mechanism_name_rejected_eagerly(self):
        wire = run_to_wire(sample_runs()[0]) | {"mechanism": "no-such-policy"}
        with pytest.raises(ProtocolError):
            run_from_wire(wire)

    def test_invalid_scale_rejected(self):
        wire = run_to_wire(sample_runs()[1]) | {"scale": {"bogus_field": 1}}
        with pytest.raises(ProtocolError, match="scale"):
            run_from_wire(wire)

    def test_non_dict_rejected(self):
        with pytest.raises(ProtocolError):
            run_from_wire(["not", "a", "dict"])

    @pytest.mark.parametrize("wire", MALFORMED_RUNS)
    def test_malformed_run_refused_at_decode(self, wire, tmp_path):
        """Refused by ``run_from_wire``, and answered by the service with a
        ``protocol`` error: nothing raised, journaled or queued."""
        from repro.experiments.engine import ExperimentSession
        from repro.service import ExperimentService, ServiceClient

        with pytest.raises(ProtocolError):
            run_from_wire(wire)
        journal_dir = tmp_path / "journal"
        session = ExperimentSession(cache_dir=tmp_path / "cache", max_workers=1)
        service = ExperimentService(session=session, journal_dir=journal_dir)
        with service, ServiceClient(service=service) as cli:
            resp = cli.request({"op": "submit", "runs": [wire]})
            scheduler = cli.status()["status"]["scheduler"]
        assert resp["ok"] is False and resp["error"]["type"] == "protocol"
        assert scheduler["submitted"] == 0
        assert list(journal_dir.glob("*")) == []


class TestFraming:
    def test_malformed_json_frame(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_line(b'{"torn')

    def test_non_object_frame(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_line(b"[1, 2]")

    def test_error_response_shape(self):
        resp = error_response("overloaded", "queue full", queued=7, limit=4)
        assert resp["ok"] is False
        assert resp["error"]["type"] == "overloaded"
        assert resp["error"]["message"] == "queue full"
        assert resp["error"]["queued"] == 7 and resp["error"]["limit"] == 4
