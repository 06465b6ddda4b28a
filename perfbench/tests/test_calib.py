"""The calibrated-seconds conversion."""

import pytest

from perfbench import calib, host, report


def test_reference_seconds_scale_by_the_kernel():
    ref = calib.REFERENCE_SECONDS
    # a host where the kernel takes twice the reference time is half
    # as fast: its raw seconds count as half
    assert calib.to_reference(3.0, 2 * ref) == pytest.approx(1.5)
    assert calib.to_reference(3.0, ref) == pytest.approx(3.0)
    assert calib.to_reference(3.0, ref / 4) == pytest.approx(12.0)


def test_a_non_positive_kernel_time_is_rejected():
    with pytest.raises(ValueError):
        calib.to_reference(1.0, 0.0)


def test_kernel_is_deterministic_and_timed():
    assert calib.kernel() == calib.kernel()
    assert calib.time_kernel() > 0


def test_delivered_share_discounts_stolen_ticks():
    before = [0] * 8
    # user nice system idle iowait irq softirq steal: 300 busy ticks,
    # 100 stolen from them, idle ticks do not count
    after = [200, 0, 80, 500, 0, 0, 20, 100]
    assert host.delivered_share(before, after) == pytest.approx(0.75)
    assert host.delivered_share(after, after) == 1.0


def worker(cals, cpus, setup_cal, setup_cpu=4.0):
    return {
        "setup_cpu_s": setup_cpu,
        "setup_cal_s": setup_cal,
        "jobs": [{"cpu_s": t, "wall_s": t, "delivered": 0.5,
                  "cal_s": c, "traced": False,
                  "peak_candidate_bytes": 2_000_000, "peak_rss_mb": 10.0}
                 for t, c in zip(cpus, cals)],
    }


def test_a_runs_kernel_time_is_the_median_of_its_samples():
    ref = calib.REFERENCE_SECONDS
    # kernel samples hit by a stall do not move the run's kernel time
    slow = worker([2 * ref, 9 * ref, 2 * ref], [2.0, 2.0, 2.0],
                  setup_cal=2 * ref)
    other = worker([2 * ref, 2.2 * ref, 7 * ref], [2.0, 2.0, 2.0],
                   setup_cal=1.8 * ref)
    kernel = report.batch_kernel_seconds([slow, other])
    assert kernel == pytest.approx(2 * ref)
    # on that host the run's raw 2 s jobs are 1 reference second each
    assert calib.to_reference(2.0, kernel) == pytest.approx(1.0)


def test_batch_metrics_are_the_workers_scaled_cpu_seconds():
    a = worker([1.0] * 3, [2.0, 2.0, 4.0], setup_cal=1.0, setup_cpu=3.0)
    b = worker([1.0] * 2, [1.0, 1.0], setup_cal=1.0, setup_cpu=5.0)
    e2e = report.batch_end_to_end([a, b], scale=0.5)
    assert e2e["job_cpu_p50_s"] == pytest.approx(1.0)
    # per worker: 3 jobs / 4 s and 2 jobs / 1 s; the median of two
    assert e2e["jobs_per_cpu_s"] == pytest.approx((3 / 4 + 2) / 2)
    assert e2e["setup_s"] == pytest.approx(2.0)
    assert e2e["peak_candidate_mb"] == pytest.approx(2.0)
    # half the demanded CPU time was stolen: a wall second holding one
    # CPU second would have lasted half a second, so two cores were busy
    assert e2e["parallelism"] == pytest.approx(2.0)
    assert set(e2e) == set(report.declared("end_to_end"))


def test_service_metrics_are_server_and_client_scaled_cpu_seconds():
    rep = {
        "setup_cpu_s": 0.5, "setup_cal_s": 0.02,
        "sweep_cpu_s": 6.0, "sweep_wall_s": 4.0, "sweep_delivered": 0.75,
        "sweep_cal_s": [0.02, 0.02],
        "hit_cal_s": [0.02, 0.01], "hit_cpu_s": [0.002, 0.004, 0.003],
        "cold_jobs": [{"measured_peak_bytes": 1_000_000}] * 12,
        "peak_rss_mb": 50.0, "traced": False,
    }
    e2e = report.service_end_to_end([rep], scale=2.0)
    assert e2e["job_cpu_p50_s"] == pytest.approx(0.006)
    assert e2e["jobs_per_cpu_s"] == pytest.approx(12 / 12.0)
    assert e2e["setup_s"] == pytest.approx(1.0)
    assert e2e["peak_candidate_mb"] == pytest.approx(1.0)
    assert e2e["parallelism"] == pytest.approx(6.0 / (4.0 * 0.75))
    assert set(e2e) == set(report.declared("end_to_end"))
    assert report.service_kernel_seconds([rep]) == pytest.approx(0.02)
