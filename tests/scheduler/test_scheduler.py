"""Tests for resource blocks and the PRODLOAD simulation."""

import pytest

from repro.machine.presets import sx4_node
from repro.scheduler import jobs, prodload
from repro.scheduler.resource_blocks import ResourceBlock, ResourceBlockSet


class TestResourceBlock:
    def test_admit_allocate_release(self):
        block = ResourceBlock("b", 0, 8, 2.0)
        assert block.admits(4, 1.0)
        block.allocate(4, 1.0)
        assert block.cpus_in_use == 4
        assert not block.admits(5, 0.5)
        block.release(4, 1.0)
        assert block.cpus_in_use == 0

    def test_over_release_rejected(self):
        block = ResourceBlock("b", 0, 8, 2.0)
        with pytest.raises(ValueError):
            block.release(1, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceBlock("b", 4, 2, 1.0)  # min > max
        with pytest.raises(ValueError):
            ResourceBlock("b", 0, 4, -1.0)
        with pytest.raises(ValueError):
            ResourceBlock("b", 0, 4, 1.0, policy="weird")
        block = ResourceBlock("b", 0, 4, 1.0)
        with pytest.raises(ValueError):
            block.admits(0, 1.0)


class TestResourceBlockSet:
    def test_production_default_valid(self):
        blocks = ResourceBlockSet.production_default()
        assert len(blocks.blocks) == 3
        names = {b.name for b in blocks.blocks}
        assert "interactive" in names

    def test_placement_by_policy(self):
        blocks = ResourceBlockSet.production_default()
        chosen = blocks.place(2, 0.5, policy="interactive")
        assert chosen.name == "interactive"
        with pytest.raises(ValueError):
            blocks.place(8, 0.5, policy="interactive")  # exceeds the slice

    def test_all_processors_to_one_process(self):
        """Section 2.6.4: 'All processors can be assigned to a single
        process by properly defining the Resource Blocks.'"""
        blocks = ResourceBlockSet(
            blocks=[ResourceBlock("whole-machine", 0, 32, 8.0, policy="fifo")],
            node_cpus=32,
        )
        chosen = blocks.place(32, 8.0, policy="fifo")
        assert chosen.cpus_in_use == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceBlockSet(blocks=[])
        with pytest.raises(ValueError):
            ResourceBlockSet(
                blocks=[ResourceBlock("a", 0, 64, 2.0)], node_cpus=32
            )
        with pytest.raises(ValueError):
            ResourceBlockSet(
                blocks=[
                    ResourceBlock("a", 20, 20, 2.0),
                    ResourceBlock("b", 20, 20, 2.0),
                ],
                node_cpus=32,
            )
        with pytest.raises(ValueError):
            ResourceBlockSet(
                blocks=[ResourceBlock("a", 0, 4, 2.0), ResourceBlock("a", 0, 4, 2.0)]
            )


class TestJobs:
    @pytest.fixture(scope="class")
    def node(self):
        return sx4_node()

    def test_prodload_job_composition(self, node):
        """A job = HIPPI + one T106 3-day + two T42 20-day runs."""
        job = jobs.prodload_job(node, "j")
        names = [c.name for c in job.components]
        assert len(names) == 4
        assert sum("t42" in n for n in names) == 2
        assert sum("t106" in n for n in names) == 1
        assert sum("hippi" in n for n in names) == 1

    def test_four_jobs_fill_the_node(self, node):
        job = jobs.prodload_job(node, "j")
        assert 4 * job.cpus == node.cpu_count

    def test_durations_positive_and_minutes_scale(self, node):
        job = jobs.prodload_job(node, "j")
        for comp in job.components:
            assert 10.0 < comp.duration_s < 3600.0

    def test_contention_lengthens_components(self, node):
        alone = jobs.prodload_job(node, "j", concurrent_jobs=1)
        crowded = jobs.prodload_job(node, "j", concurrent_jobs=4)
        assert crowded.critical_duration_s > alone.critical_duration_s

    def test_validation(self, node):
        with pytest.raises(ValueError):
            jobs.Component("c", cpus=0, duration_s=1.0)
        with pytest.raises(ValueError):
            jobs.Component("c", cpus=1, duration_s=0.0)
        with pytest.raises(ValueError):
            jobs.JobSpec("j", components=())
        with pytest.raises(ValueError):
            jobs.ccm2_component(node, "x", "T42L18", days=0.0, cpus=2)
        with pytest.raises(ValueError):
            jobs.prodload_job(node, "j", concurrent_jobs=0)
        with pytest.raises(ValueError, match="a PRODLOAD job needs 8 CPUs, the node has 4"):
            jobs.prodload_job(sx4_node(cpus=4), "j")


class TestProdload:
    @pytest.fixture(scope="class")
    def result(self):
        return prodload.run_prodload()

    def test_four_tests_present(self, result):
        assert set(result.test_seconds) == {"test1", "test2", "test3", "test4"}

    def test_total_matches_paper(self, result):
        """'The NEC SX-4/32 completed the PRODLOAD benchmark in 93
        minutes and 28 seconds' — the simulation lands within ~10%."""
        assert result.total_seconds == pytest.approx(
            prodload.PAPER_TOTAL_SECONDS, rel=0.10
        )

    def test_concurrent_sequences_cost_little_extra(self, result):
        """Tests 1-3 run 1x/2x/4x the work in nearly the same wall time —
        the whole point of the benchmark (the machine absorbs load)."""
        t1 = result.test_seconds["test1"]
        t3 = result.test_seconds["test3"]
        assert t3 < 1.15 * t1

    def test_t170_test_is_short(self, result):
        assert result.test_seconds["test4"] < 0.25 * result.test_seconds["test1"]

    def test_job_records_complete(self, result):
        # 4 tests: (4 + 8 + 16) jobs x 4 components + 2 T170 components.
        assert len(result.job_records) == (4 + 8 + 16) * 4 + 2
        for name, start, end in result.job_records:
            assert end > start >= 0.0

    def test_no_cpu_oversubscription(self):
        """A node smaller than one job is refused before any job is
        priced, with a message that names the job."""
        node = sx4_node(cpus=4)
        with pytest.raises(ValueError, match="a PRODLOAD job needs 8 CPUs, the node has 4"):
            prodload.run_prodload(node)
