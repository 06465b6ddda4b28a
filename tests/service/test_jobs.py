"""JobSpec validation and Job lifecycle records."""

from __future__ import annotations

import pytest

from repro.core.generators import complete_graph
from repro.engine import EnumerationConfig
from repro.errors import ParameterError
from repro.service.jobs import Job, JobSpec, JobStatus


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec(graph=complete_graph(3))
        assert spec.sink == "collect"
        assert spec.priority == 0
        assert spec.use_cache

    def test_path_reference_allowed(self):
        spec = JobSpec(graph="somewhere/g.json")
        assert spec.graph == "somewhere/g.json"

    def test_rejects_non_graph(self):
        with pytest.raises(ParameterError, match="graph"):
            JobSpec(graph=42)

    def test_rejects_non_config(self):
        with pytest.raises(ParameterError, match="config"):
            JobSpec(graph=complete_graph(3), config={"k_min": 2})

    def test_rejects_bad_sink_spec(self):
        with pytest.raises(ParameterError, match="sink"):
            JobSpec(graph=complete_graph(3), sink="warp:9")

    def test_rejects_non_int_priority(self):
        with pytest.raises(ParameterError, match="priority"):
            JobSpec(graph=complete_graph(3), priority="high")

    def test_frozen(self):
        spec = JobSpec(graph=complete_graph(3))
        with pytest.raises(AttributeError):
            spec.priority = 5


class TestJobStatus:
    def test_terminal_states(self):
        assert not JobStatus.PENDING.terminal
        assert not JobStatus.RUNNING.terminal
        assert JobStatus.DONE.terminal
        assert JobStatus.FAILED.terminal
        assert JobStatus.CANCELLED.terminal


class TestJob:
    def test_initial_state(self):
        job = Job("job-000001", JobSpec(graph=complete_graph(3)))
        assert job.status is JobStatus.PENDING
        assert not job.done
        assert job.result is None

    def test_wait_timeout(self):
        job = Job("job-000001", JobSpec(graph=complete_graph(3)))
        with pytest.raises(TimeoutError, match="job-000001"):
            job.wait(timeout=0.01)

    def test_finish_unblocks_wait(self):
        job = Job("job-000001", JobSpec(graph=complete_graph(3)))
        job._mark_running()
        job._finish(JobStatus.DONE)
        assert job.wait(timeout=0.01) is job
        assert job.done
        assert job.run_seconds >= 0

    def test_to_dict_is_json_safe(self):
        import json

        job = Job(
            "job-000007",
            JobSpec(graph=complete_graph(3), sink="count", label="sweep"),
        )
        job._mark_running()
        job._finish(JobStatus.FAILED, "boom")
        payload = json.loads(json.dumps(job.to_dict()))
        assert payload["id"] == "job-000007"
        assert payload["status"] == "failed"
        assert payload["error"] == "boom"
        assert payload["label"] == "sweep"
        assert payload["level_store"] is None

    def test_to_dict_reports_level_store(self):
        from repro.engine import EnumerationConfig

        job = Job(
            "job-000008",
            JobSpec(
                graph=complete_graph(3),
                config=EnumerationConfig(level_store="wah"),
            ),
        )
        assert job.to_dict()["level_store"] == "wah"


class TestSubmitTimeResolution:
    def test_spec_stores_the_resolved_config(self):
        """The spec keeps the k_min-promoted config, so the cache key
        matches the run the engine actually dispatches."""
        from repro.engine import register_backend, unregister_backend

        @register_backend("test-spec-floor", min_k_min=3)
        def run_floor(g, config, on_clique=None):
            """Never dispatched in this test."""

        try:
            spec = JobSpec(
                graph=complete_graph(2),
                config=EnumerationConfig(
                    backend="test-spec-floor", k_min=1
                ),
            )
            promoted = JobSpec(
                graph=complete_graph(2),
                config=EnumerationConfig(
                    backend="test-spec-floor", k_min=3
                ),
            )
        finally:
            unregister_backend("test-spec-floor")
        assert spec.config.k_min == 3
        assert spec.config == promoted.config
        assert hash(spec.config) == hash(promoted.config)

    def test_unsupported_store_refused_at_spec_construction(self):
        """Any policy the backend does not advertise — level store or
        compute domain — is refused before the job is queued."""
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="does not support"):
            JobSpec(
                graph=complete_graph(2),
                config=EnumerationConfig(
                    backend="ooc", compute_domain="wah"
                ),
            )

    def test_unknown_backend_refused_at_spec_construction(self):
        with pytest.raises(ParameterError, match="unknown backend"):
            JobSpec(
                graph=complete_graph(2),
                config=EnumerationConfig(backend="warpdrive"),
            )


class TestToDictParallelStats:
    def test_to_dict_reports_worker_and_transfer_counts(self):
        """n_workers/transfers come straight from the attached result —
        pinned here so the wire payload cannot silently regress to a
        constant."""
        from repro.core.clique_enumerator import EnumerationResult

        job = Job("job-000042", JobSpec(graph=complete_graph(2)))
        job.result = EnumerationResult(
            backend="threads", n_workers=4, transfers=9
        )
        payload = job.to_dict()
        assert payload["n_workers"] == 4
        assert payload["transfers"] == 9
