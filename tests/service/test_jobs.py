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
        assert payload["level_store"] == "memory"

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
    def test_unsupported_store_refused_at_spec_construction(self):
        """Every backend runs every store; the policy a backend can
        refuse — jobs on a sequential one — is refused before the job
        is queued."""
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="sequential"):
            JobSpec(
                graph=complete_graph(2),
                config=EnumerationConfig(level_store="wah", jobs=2),
            )

    def test_sequential_jobs_never_reach_the_queue(self):
        """``jobs`` on a sequential backend fails the submit, instead of
        a queued job that can only end FAILED at dispatch; the parallel
        backend takes it."""
        from repro.errors import ConfigError
        from repro.service.scheduler import JobScheduler

        with JobScheduler(workers=1, cache=None) as sched:
            for backend in ("incore", "bitscan"):
                with pytest.raises(ConfigError, match="sequential"):
                    sched.submit(JobSpec(
                        graph=complete_graph(3),
                        config=EnumerationConfig(backend=backend, jobs=2),
                    ))
            assert sched.jobs() == []
            job = sched.submit(JobSpec(
                graph=complete_graph(3),
                config=EnumerationConfig(backend="threads", jobs=2),
            )).wait(30)
            assert job.status is JobStatus.DONE

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
