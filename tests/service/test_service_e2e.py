"""End-to-end service tests: a real HTTP server, in process.

The acceptance demo of the service PR: start the server against a store,
POST a Table II circuit spec, watch journal events stream while the flow
runs, fetch the test-set artifact, and POST the identical request again --
the second answer must come from the store (no stages executed) and be
byte-identical.  Plus the surrounding behaviours: coalescing, cancelling,
tiers across *two* servers sharing one root, storeless operation, and
input validation over the wire.
"""

import json

import pytest

from repro.atpg.budget import AtpgBudget
from repro.pipeline import FlowPipeline
from repro.service import BackgroundServer, ServiceClient, ServiceError
from repro.store.core import ArtifactStore

TINY_BENCH = """\
INPUT(a)
OUTPUT(z)
q = DFF(g1)
g1 = AND(a, q)
z = NOT(g1)
"""

TINY_REQUEST = {
    "circuit": {"format": "bench", "source": TINY_BENCH, "name": "tiny"},
    "budget": {"total_seconds": 5.0, "random_sequences": 8, "random_length": 8},
}

TABLE2_REQUEST = {
    "circuit": {"format": "table2", "fsm": "dk16", "style": "ji", "script": "sd"},
    "budget": {"total_seconds": 2.0},
}


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(root=str(tmp_path / "service-store"))


def _client(server):
    return ServiceClient(port=server.port)


class TestEndToEnd:
    def test_submit_stream_fetch_and_cached_resubmit(self, store):
        """The PR's demo path, plus bit-identity against a direct run."""
        with BackgroundServer(store=store, pool=2) as server:
            client = _client(server)
            assert client.health() == {"ok": True}

            first = client.submit(TABLE2_REQUEST)
            assert first["disposition"] == "fresh"
            events = list(client.events(first["id"]))  # streams until job_end
            kinds = [event["event"] for event in events]
            assert "stage_start" in kinds
            assert kinds[-1] == "job_end"
            assert events[-1]["status"] == "done"

            final = client.wait(first["id"], timeout=120)
            assert final["status"] == "done"
            testset = client.artifact(first["id"], "testset")
            result = client.artifact(first["id"], "result")
            bench = client.artifact(first["id"], "bench")
            assert bench.startswith(b"#")

            # Identical second POST: idempotent -- the canonical done job
            # comes back from the in-memory tier, no stages run.
            second = client.submit(TABLE2_REQUEST)
            assert second["disposition"] == "cached"
            assert second["status"] == "done"
            assert second["id"] == first["id"]
            assert client.artifact(second["id"], "result") == result
            assert client.artifact(second["id"], "testset") == testset

            stats = client.stats()
            assert stats["metrics"]["dedup"]["cached"] == 1
            assert stats["metrics"]["dedup"]["cached_memory"] == 1
            assert stats["metrics"]["latency_seconds"]["fresh"]["count"] == 1

        # Bit-identity: the service's derived test set equals a direct
        # FlowPipeline run with no store at all (the engines are seeded
        # and deterministic; the service adds transport, not variance).
        pipeline = FlowPipeline()
        from repro.core.experiments import TABLE2_CIRCUITS

        spec = next(s for s in TABLE2_CIRCUITS if s.name == "dk16.ji.sd")
        direct = pipeline.run_spec(spec, AtpgBudget(total_seconds=2.0))
        assert testset.decode("utf-8") == direct.flow.derived_test_set.to_text()

    def test_coalescing_while_running(self, store):
        with BackgroundServer(store=store, pool=1) as server:
            client = _client(server)
            first = client.submit(TABLE2_REQUEST)
            assert first["disposition"] == "fresh"
            repeat = client.submit(TABLE2_REQUEST)
            assert repeat["disposition"] == "coalesced"
            assert repeat["id"] == first["id"]
            final = client.wait(first["id"], timeout=120)
            assert final["status"] == "done"
            assert final["coalesced_hits"] == 1

    def test_cancel_queued_job(self, store):
        with BackgroundServer(store=store, pool=1) as server:
            client = _client(server)
            running = client.submit(TABLE2_REQUEST)
            queued = client.submit(TINY_REQUEST)
            assert queued["id"] != running["id"]
            cancelled = client.cancel(queued["id"])
            assert cancelled["status"] == "cancelled"
            with pytest.raises(ServiceError) as excinfo:
                client.artifact(queued["id"], "result")
            assert excinfo.value.status == 409
            # The running job is unaffected by its neighbour's cancellation.
            assert client.wait(running["id"], timeout=120)["status"] == "done"

    def test_two_servers_share_one_store(self, store):
        """Dedup works across processes sharing a root, not just within."""
        with BackgroundServer(store=store, pool=1) as first_server:
            first_client = _client(first_server)
            job = first_client.submit(TINY_REQUEST)
            first_client.wait(job["id"], timeout=120)
            result = first_client.artifact(job["id"], "result")
        second_store = ArtifactStore(root=store.root)
        with BackgroundServer(store=second_store, pool=1) as second_server:
            second_client = _client(second_server)
            cached = second_client.submit(TINY_REQUEST)
            assert cached["disposition"] == "cached"
            assert second_client.artifact(cached["id"], "result") == result


class TestStorelessAndFormats:
    def test_storeless_server_computes_and_serves_from_memory(self):
        with BackgroundServer(store=None, pool=1) as server:
            client = _client(server)
            job = client.submit(TINY_REQUEST)
            assert job["disposition"] == "fresh"
            final = client.wait(job["id"], timeout=120)
            assert final["status"] == "done"
            assert final["journal"] is None
            assert client.artifact(job["id"], "testset")
            # No journal => the stream is just the terminal event.
            assert [e["event"] for e in client.events(job["id"])] == ["job_end"]
            # An identical resubmit dedups against the in-memory job
            # table even with no store behind the server -- idempotent,
            # so the canonical job comes back.
            repeat = client.submit(TINY_REQUEST)
            assert repeat["disposition"] == "cached"
            assert repeat["id"] == job["id"]
            stats = client.stats()
            assert stats["metrics"]["dedup"]["cached_memory"] == 1

    def test_builder_and_verilog_formats_run(self, store):
        from repro.circuit import parse_bench, write_verilog

        verilog = write_verilog(parse_bench(TINY_BENCH, name="tiny"))
        builder_request = {
            "circuit": {
                "format": "builder",
                "name": "tiny2",
                "signals": [
                    {"op": "input", "name": "a"},
                    {"op": "and", "name": "g1", "args": ["a", "q"]},
                    {"op": "dff", "name": "q", "args": ["g1"]},
                    {"op": "not", "name": "g2", "args": ["g1"]},
                ],
                "outputs": [["z", "g2"]],
            },
            "budget": TINY_REQUEST["budget"],
        }
        verilog_request = {
            "circuit": {"format": "verilog", "source": verilog, "name": "tiny"},
            "budget": TINY_REQUEST["budget"],
        }
        with BackgroundServer(store=store, pool=2) as server:
            client = _client(server)
            jobs = [client.submit(builder_request), client.submit(verilog_request)]
            for job in jobs:
                assert client.wait(job["id"], timeout=120)["status"] == "done"
            summaries = client.jobs()["jobs"]
            assert {doc["status"] for doc in summaries} == {"done"}

    def test_tenant_namespaces_isolate_dedup(self, store):
        request_a = {**TINY_REQUEST, "tenant": "team-a"}
        request_b = {**TINY_REQUEST, "tenant": "team-b"}
        with BackgroundServer(store=store, pool=1) as server:
            client = _client(server)
            job = client.submit(request_a)
            client.wait(job["id"], timeout=120)
            # Same work, same tenant: cached.  Different tenant: fresh --
            # tenant namespaces do not leak artifacts into each other.
            assert client.submit(request_a)["disposition"] == "cached"
            fresh = client.submit(request_b)
            assert fresh["disposition"] == "fresh"
            client.wait(fresh["id"], timeout=120)


class TestValidationOverTheWire:
    def test_not_json_is_400(self, store):
        import http.client

        with BackgroundServer(store=store, pool=1) as server:
            connection = http.client.HTTPConnection("127.0.0.1", server.port)
            try:
                connection.request(
                    "POST", "/v1/jobs", b"this is not json",
                    {"Connection": "close"},
                )
                response = connection.getresponse()
                assert response.status == 400
                assert b"JSON" in response.read()
            finally:
                connection.close()

    def test_schema_error_is_400_with_message(self, store):
        with BackgroundServer(store=store, pool=1) as server:
            client = _client(server)
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"circuit": {"format": "edif"}})
            assert excinfo.value.status == 400
            assert "format" in excinfo.value.message

    def test_stg_engine_option_is_400(self, store):
        """The verify stage has one extraction policy: no ``stg_engine``."""
        with BackgroundServer(store=store, pool=1) as server:
            client = _client(server)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(
                    {
                        "circuit": {
                            "format": "table2",
                            "fsm": "dk16",
                            "style": "ji",
                            "script": "sd",
                        },
                        "options": {"verify": True, "stg_engine": "reach"},
                    }
                )
            assert excinfo.value.status == 400
            assert "unknown option 'stg_engine'" in excinfo.value.message

    def test_backend_option_is_400(self, store):
        """The platform picks the word implementation: no ``backend``."""
        with BackgroundServer(store=store, pool=1) as server:
            client = _client(server)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(
                    {
                        "circuit": {
                            "format": "table2",
                            "fsm": "dk16",
                            "style": "ji",
                            "script": "sd",
                        },
                        "options": {"backend": "numpy"},
                    }
                )
            assert excinfo.value.status == 400
            assert "unknown option 'backend'" in excinfo.value.message

    def test_retired_atpg_inputs_are_400(self, store):
        """ATPG has one configuration and no time-frame search: each
        retired option, each retired budget field and a zero lane-step
        cap is a 400 naming it."""
        circuit = {"format": "table2", "fsm": "dk16", "style": "ji", "script": "sd"}
        cases = [
            ({"options": {"workers": 2}}, "unknown option 'workers'"),
            ({"options": {"engine": "process"}}, "unknown option 'engine'"),
            ({"options": {"guidance": "scoap"}}, "unknown option 'guidance'"),
            ({"budget": {"backtracks_per_fault": 4}}, "unknown field 'backtracks_per_fault'"),
            ({"budget": {"max_frames": 8}}, "unknown field 'max_frames'"),
            ({"budget": {"frames_cap": 6}}, "unknown field 'frames_cap'"),
            ({"budget": {"seconds_per_fault": 1.0}}, "unknown field 'seconds_per_fault'"),
            ({"budget": {"exact_lane_steps": 0}}, "budget: exact_lane_steps must be"),
        ]
        with BackgroundServer(store=store, pool=1) as server:
            client = _client(server)
            for extra, message in cases:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit({"circuit": circuit, **extra})
                assert excinfo.value.status == 400, extra
                assert message in excinfo.value.message, extra

    def test_nan_budget_is_400(self, store):
        """``json.loads`` parses ``NaN``; a clock that never runs out
        must not reach a pool worker."""
        with BackgroundServer(store=store, pool=1) as server:
            client = _client(server)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(
                    {
                        "circuit": {
                            "format": "table2",
                            "fsm": "dk16",
                            "style": "ji",
                            "script": "sd",
                        },
                        "budget": {"total_seconds": float("nan"), "random_batch": 0},
                    }
                )
            assert excinfo.value.status == 400
            assert "budget: total_seconds must be" in excinfo.value.message

    def test_unknown_job_is_404(self, store):
        with BackgroundServer(store=store, pool=1) as server:
            client = _client(server)
            with pytest.raises(ServiceError) as excinfo:
                client.job("j99999")
            assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, store):
        with BackgroundServer(store=store, pool=1) as server:
            client = _client(server)
            with pytest.raises(ServiceError) as excinfo:
                client._json("GET", "/v2/everything")
            assert excinfo.value.status == 404

    def test_unknown_artifact_name_is_404(self, store):
        with BackgroundServer(store=store, pool=1) as server:
            client = _client(server)
            job = client.submit(TINY_REQUEST)
            client.wait(job["id"], timeout=120)
            with pytest.raises(ServiceError) as excinfo:
                client.artifact(job["id"], "blueprints")
            assert excinfo.value.status == 404

    def test_stats_shape(self, store):
        with BackgroundServer(store=store, pool=3) as server:
            stats = _client(server).stats()
            assert stats["pool"] == 3
            assert stats["queue_depth"] == 0
            assert stats["store"]["root"] == store.root
            assert set(stats["metrics"]["dedup"]) == {
                "coalesced",
                "cached",
                "cached_memory",
            }
            assert stats["queue_high_water"] is None
            assert stats["metrics"]["rejected"] == 0
            assert stats["http"]["connections_total"] >= 1
