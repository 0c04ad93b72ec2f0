import random
from itertools import combinations

import pytest

from durakit.codec import gf256, linear
from durakit.codec.lrc import DEFAULT_DC_ASSIGNMENT, LRC_6_2_2
from durakit.codec.repair import recoverability_report, repair_plan
from durakit.errors import UnrecoverableError
from durakit.placement import Placement, balanced_placement
from durakit.probability import ErasureScheme, ReplicationScheme

from oracles import scalar_repair_sources


def rs_6_3_three_per_dc():
    return Placement(ErasureScheme(6, 3), (0, 0, 0, 1, 1, 1, 2, 2, 2))


def lrc_default():
    return Placement(LRC_6_2_2, DEFAULT_DC_ASSIGNMENT)


def rep3_one_per_dc():
    return Placement(ReplicationScheme(3), (0, 1, 2))


class TestWorkedExamples:
    def test_rs_6_3_needs_four_remote_disks(self):
        plan = repair_plan(rs_6_3_three_per_dc(), 0)
        assert len(plan.sources) == 6
        assert plan.local_transfers == 2
        assert plan.remote_transfers == 4

    def test_lrc_single_data_failure_repairs_locally(self):
        plan = repair_plan(lrc_default(), 0)
        assert sorted(plan.sources) == [1, 2, 6]
        assert plan.local_transfers == 3
        assert plan.remote_transfers == 0

    def test_lrc_local_parity_failure_repairs_locally(self):
        plan = repair_plan(lrc_default(), 7)
        assert sorted(plan.sources) == [3, 4, 5]
        assert plan.remote_transfers == 0

    def test_replication_copies_one_replica_from_remote_dc(self):
        plan = repair_plan(rep3_one_per_dc(), 1)
        assert len(plan.sources) == 1
        assert plan.remote_transfers == 1
        assert plan.local_transfers == 0

    def test_cost_narrative_orderings(self):
        rep = repair_plan(rep3_one_per_dc(), 0)
        lrc_single = repair_plan(lrc_default(), 0)
        rs = repair_plan(rs_6_3_three_per_dc(), 0)
        # total bytes moved: lowest replication, intermediate LRC, highest RS
        total = [plan.local_transfers + plan.remote_transfers for plan in (rep, lrc_single, rs)]
        assert total == sorted(total)
        # cross-DC traffic: LRC repairs locally, replication copies one, RS four
        assert lrc_single.remote_transfers <= rep.remote_transfers <= rs.remote_transfers


class TestReplicationRepair:
    def test_prefers_local_replica(self):
        placement = Placement(ReplicationScheme(3), (0, 0, 1))
        plan = repair_plan(placement, 0)
        assert plan.sources == (1,)
        assert plan.local_transfers == 1
        assert plan.remote_transfers == 0

    def test_single_copy_unrepairable(self):
        with pytest.raises(UnrecoverableError):
            repair_plan(Placement(ReplicationScheme(1), (0,)), 0)


class TestRsRepair:
    def test_prefers_local_sources(self):
        plan = repair_plan(rs_6_3_three_per_dc(), 4)
        assert plan.local_transfers == 2
        assert set(plan.sources) >= {3, 5}

    def test_too_many_missing_fragments(self):
        with pytest.raises(UnrecoverableError):
            repair_plan(rs_6_3_three_per_dc(), 0, unavailable=(1, 2, 3, 4))

    def test_extra_unavailable_fragments_skipped(self):
        plan = repair_plan(rs_6_3_three_per_dc(), 0, unavailable=(1, 2))
        assert len(plan.sources) == 6
        assert plan.remote_transfers == 6  # whole local dc is gone

    def test_single_fragment_scheme_unrepairable(self):
        with pytest.raises(UnrecoverableError):
            repair_plan(Placement(ErasureScheme(2, 0), (0, 1)), 0)


class TestLrcRepair:
    def test_global_parity_needs_all_six_data_shards(self):
        plan = repair_plan(lrc_default(), 8)
        assert sorted(plan.sources) == [0, 1, 2, 3, 4, 5]
        assert plan.local_transfers == 0
        assert plan.remote_transfers == 6

    def test_degraded_group_falls_back_to_globals(self):
        # fragment 0 lost and group-mate 1 also unavailable: local XOR repair
        # is impossible, but the globals still determine the data
        plan = repair_plan(lrc_default(), 0, unavailable=(1,))
        assert 1 not in plan.sources
        assert 0 not in plan.sources
        assert plan.remote_transfers >= 1

    def test_degraded_beyond_recovery(self):
        with pytest.raises(UnrecoverableError):
            repair_plan(lrc_default(), 0, unavailable=(1, 2, 6, 8))

    def test_sources_exclude_failed_and_unavailable(self):
        plan = repair_plan(lrc_default(), 3, unavailable=(4,))
        assert 3 not in plan.sources
        assert 4 not in plan.sources


class TestPlanShape:
    def test_dcs_reported_per_source(self):
        plan = repair_plan(rs_6_3_three_per_dc(), 0)
        assert len(plan.source_dcs) == len(plan.sources)
        assert plan.local_transfers + plan.remote_transfers == len(plan.sources)

    def test_bad_failed_index(self):
        with pytest.raises(ValueError):
            repair_plan(rep3_one_per_dc(), 9)

    @pytest.mark.parametrize("unavailable", [(99, -3), (10,), (-1,), (1, 10)])
    def test_bad_unavailable_index(self, unavailable):
        with pytest.raises(ValueError, match=r"outside 0\.\.9"):
            repair_plan(lrc_default(), 0, unavailable)


def search_cases(placement, extra):
    """Every (failed, unavailable) pattern with up to ``extra`` unavailable fragments."""
    count = placement.scheme.fragment_count
    for failed in range(count):
        others = [i for i in range(count) if i != failed]
        for size in range(extra + 1):
            for unavailable in combinations(others, size):
                yield failed, unavailable


def rank_loop_sources(code, placement, failed, unavailable):
    """The accumulate-and-trim search on ``code.rank`` for every code; None if none.

    This is the search an MDS code ran before it was answered by count:
    survivors sorted same-DC-first, taken until the failed row is in their
    span, then each one that can be spared dropped, in order.
    """
    gone = {failed, *unavailable}
    failed_dc = placement.assignment[failed]
    survivors = sorted(
        (i for i in range(code.count) if i not in gone),
        key=lambda i: (placement.assignment[i] != failed_dc, i),
    )
    chosen = set()

    def covers():
        return code.rank(chosen | {failed}) == code.rank(chosen)

    for taken, index in enumerate(survivors, 1):
        chosen.add(index)
        if covers():
            break
    else:
        return None
    for index in survivors[:taken]:
        chosen.remove(index)
        if not covers():
            chosen.add(index)
    return [index for index in survivors[:taken] if index in chosen]


class TestRepairSearch:
    """One rank-lookup search for every code, checked against the scalar search."""

    def check(self, placement, extra):
        code = linear.code_of(placement.scheme)
        for failed, unavailable in search_cases(placement, extra):
            expected = scalar_repair_sources(code, placement, failed, unavailable)
            if expected is None:
                with pytest.raises(UnrecoverableError, match="cannot be rebuilt"):
                    repair_plan(placement, failed, unavailable)
            else:
                got = repair_plan(placement, failed, unavailable).sources
                assert list(got) == expected, (failed, unavailable)

    def test_lrc_every_pattern_up_to_three_unavailable(self):
        self.check(lrc_default(), 3)

    @pytest.mark.parametrize("scheme", [ErasureScheme(8, 3), ErasureScheme(6, 3)],
                             ids=lambda scheme: scheme.label)
    @pytest.mark.parametrize("dcs", range(1, 7))
    def test_rs_reads_the_first_k_survivors(self, scheme, dcs):
        self.check(balanced_placement(scheme, dcs), 3)

    @pytest.mark.parametrize("dcs", range(2, 7))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_mds_count_rule_matches_the_rank_loop(self, n, dcs):
        rng = random.Random(n * 10 + dcs)
        for m in range(1, 9):
            scheme = ErasureScheme(m, n)
            shuffled = Placement(scheme, [rng.randrange(dcs) for _ in range(m + n)])
            for placement in (balanced_placement(scheme, dcs), shuffled):
                code = linear.code_of(scheme)
                for failed, unavailable in search_cases(placement, 2):
                    expected = rank_loop_sources(code, placement, failed, unavailable)
                    if expected is None:
                        with pytest.raises(UnrecoverableError, match="cannot be rebuilt"):
                            repair_plan(placement, failed, unavailable)
                        continue
                    plan = repair_plan(placement, failed, unavailable)
                    assert list(plan.sources) == expected, (placement, failed, unavailable)

    def test_degraded_lrc_repair_makes_no_scalar_elimination(self, monkeypatch):
        calls = []
        for name in ("matrix_rank", "row_reduce"):
            real = getattr(gf256, name)
            monkeypatch.setattr(
                gf256, name, lambda *args, real=real: calls.append(args) or real(*args)
            )
        assert repair_plan(lrc_default(), 0, (1,)).sources == (2, 6, 4, 5, 7, 8)
        assert repair_plan(lrc_default(), 8, (0,)).sources == (9, 1, 2, 3, 4, 5)
        assert calls == []


class TestRecoverabilityReportValidation:
    def test_replication_rows(self):
        report = recoverability_report(ReplicationScheme(3), 3)
        assert [r.fraction for r in report.rows] == [1.0, 1.0, 1.0, 0.0]

    def test_max_t_bound(self):
        with pytest.raises(ValueError):
            recoverability_report(ErasureScheme(2, 1), 4)

    def test_unknown_scheme(self):
        with pytest.raises(TypeError):
            recoverability_report("lrc", 2)
