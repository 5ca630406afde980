"""The verification harness itself: registry, fuzz, shrink, replay, CLI.

The fuzz smoke runs live in ``tests/test_verify_fuzz.py`` behind the
``fuzz`` marker; here we pin the *machinery* — check addressing, clean
runs on known-good fixtures, determinism across seeds and job counts,
shrinking and replay of the deliberately injected mutant, and the CLI
exit-code contract.
"""

from __future__ import annotations

import json

import pytest

import repro.metrics
from repro.core.partial_ranking import PartialRanking
from repro.verify import (
    SELFTEST_CHECK_ID,
    all_checks,
    covered_names,
    find_check,
    load_replay,
    run_check,
    run_fuzz,
    run_selftest,
    select_checks,
    shrink_case,
    write_replay,
)
from repro.verify.cli import main as verify_main
from repro.verify.replay import REPLAY_SCHEMA, ReplayError, replay_file

#: A workload every non-self-test check must pass: mixed tie structures
#: over one 6-item domain (full, coarse, top-k, single bucket).
FIXTURE = (
    PartialRanking.from_sequence([3, 0, 5, 1, 4, 2]),
    PartialRanking([[0, 1], [4], [2, 3, 5]]),
    PartialRanking.top_k([5, 2], range(6)),
    PartialRanking.single_bucket(range(6)),
)


class TestRegistry:
    def test_check_census(self):
        checks = all_checks()
        kinds = [info.kind for info in checks]
        # 26 static + 2 auto-contributed plugin oracles + 6 candidate-hook
        # oracles (one per registered metric); 15 static + 2 plugins x
        # (symmetry, regularity) auto-contributed relations
        assert kinds.count("oracle") == 34
        assert kinds.count("relation") == 19
        assert not any(info.selftest_only for info in checks)

    def test_selftest_check_hidden_by_default(self):
        visible = {info.check_id for info in all_checks()}
        with_selftest = {info.check_id for info in all_checks(include_selftest=True)}
        assert SELFTEST_CHECK_ID not in visible
        assert SELFTEST_CHECK_ID in with_selftest

    def test_check_ids_unique_and_namespaced(self):
        ids = [info.check_id for info in all_checks(include_selftest=True)]
        assert len(ids) == len(set(ids))
        assert all(i.startswith(("oracle:", "relation:")) for i in ids)

    def test_every_check_carries_a_citation(self):
        assert all(info.citation for info in all_checks(include_selftest=True))

    def test_coverage_matches_metric_exports(self):
        # the runtime counterpart of analysis rule RP010: every distance
        # kernel exported from repro.metrics and every aggregation kernel
        # exported from repro.aggregate.batch has an oracle entry
        import repro.aggregate.batch

        exported = {
            name
            for name in repro.metrics.__all__
            if name.startswith(
                ("kendall", "footrule", "normalized_", "pair_counts", "pairwise_", "count_inversions")
            )
        }
        exempt = {"kendall_tau_a", "kendall_tau_b"}
        expected = (exported - exempt) | set(repro.aggregate.batch.__all__)
        assert covered_names() == expected

    def test_find_check_round_trips(self):
        for info in all_checks(include_selftest=True):
            assert find_check(info.check_id) == info

    def test_find_check_unknown_raises(self):
        with pytest.raises(KeyError, match="no-such-check"):
            find_check("oracle:no-such-check")

    def test_select_checks_substring(self):
        selected = select_checks(["hausdorff"])
        assert selected
        assert all("hausdorff" in info.check_id for info in selected)

    def test_select_checks_bad_pattern_raises(self):
        with pytest.raises(ValueError, match="matches no check id"):
            select_checks(["zzz-not-a-check"])

    def test_select_checks_deduplicates(self):
        once = select_checks(["kendall"])
        twice = select_checks(["kendall", "kendall"])
        assert once == twice


class TestRunCheck:
    @pytest.mark.parametrize(
        "check_id",
        [info.check_id for info in all_checks()],
    )
    def test_all_checks_pass_on_fixture(self, check_id):
        info = find_check(check_id)
        rankings = FIXTURE
        if info.max_items is not None and len(FIXTURE[0]) > info.max_items:
            rankings = tuple(
                sigma.restricted_to(range(info.max_items)) for sigma in FIXTURE
            )
        assert run_check(check_id, rankings) == []

    def test_selftest_mutant_is_caught(self):
        sigma = PartialRanking([[0, 1], [2]])
        tau = PartialRanking([[0, 1, 2]])
        failures = run_check(SELFTEST_CHECK_ID, (sigma, tau))
        assert failures  # the flipped tie penalty must NOT pass
        assert "selftest-kendall-flipped-tie" in failures[0]

    def test_malformed_id_raises(self):
        with pytest.raises(KeyError, match="malformed"):
            run_check("kendall", FIXTURE)


class TestFuzz:
    def test_clean_run(self):
        report = run_fuzz(4, seed=11, checks=all_checks())
        assert report.ok
        assert report.rounds == 4
        assert not report.discrepancies
        assert "OK" in report.summary()

    def test_same_seed_same_report(self):
        first = run_fuzz(3, seed=7, checks=all_checks())
        second = run_fuzz(3, seed=7, checks=all_checks())
        assert first.summary() == second.summary()
        assert first.check_ids == second.check_ids

    def test_jobs_do_not_change_results(self):
        serial = run_fuzz(4, seed=5, checks=all_checks())
        pooled = run_fuzz(4, seed=5, checks=all_checks(), jobs=2)
        assert serial.summary() == pooled.summary()
        assert [d.describe() for d in serial.discrepancies] == [
            d.describe() for d in pooled.discrepancies
        ]

    def test_mutant_check_produces_discrepancies(self):
        checks = select_checks(["selftest"], include_selftest=True)
        report = run_fuzz(6, seed=0, checks=checks)
        assert not report.ok
        first = report.discrepancies[0]
        assert first.check_id == SELFTEST_CHECK_ID
        assert first.rankings  # payload kept for shrinking/replay


class TestShrink:
    def test_mutant_shrinks_to_minimal_pair(self):
        checks = select_checks(["selftest"], include_selftest=True)
        report = run_fuzz(6, seed=0, checks=checks)
        discrepancy = report.discrepancies[0]
        shrunk = shrink_case(discrepancy.check_id, discrepancy.rankings)
        assert len(shrunk) == 2  # a pair check needs exactly two rankings
        assert len(shrunk[0]) <= len(discrepancy.rankings[0])
        assert run_check(discrepancy.check_id, shrunk)  # still fails

    def test_passing_case_is_returned_unchanged(self):
        check_id = all_checks()[0].check_id
        pair = FIXTURE[:2]
        assert shrink_case(check_id, pair) == pair


class TestReplay:
    def _failing_pair(self):
        return (PartialRanking([[0, 1], [2]]), PartialRanking([[0, 1, 2]]))

    def test_round_trip(self, tmp_path):
        pair = self._failing_pair()
        path = write_replay(
            tmp_path / "case.json",
            SELFTEST_CHECK_ID,
            pair,
            seed=42,
            round_index=3,
            detail="flipped tie penalty",
        )
        check_id, rankings, provenance = load_replay(path)
        assert check_id == SELFTEST_CHECK_ID
        assert rankings == pair
        assert provenance["seed"] == 42
        assert provenance["round"] == 3

    def test_replay_file_reproduces_mutant(self, tmp_path):
        path = write_replay(
            tmp_path / "case.json",
            SELFTEST_CHECK_ID,
            self._failing_pair(),
            seed=0,
            round_index=0,
            detail="",
        )
        assert replay_file(path)  # still fails -> non-empty violations

    def test_replay_file_passes_on_fixed_tree(self, tmp_path):
        path = write_replay(
            tmp_path / "case.json",
            "oracle:kendall-p-half",
            self._failing_pair(),
            seed=0,
            round_index=0,
            detail="",
        )
        assert replay_file(path) == []  # the real kernel agrees with its oracle

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"schema": "someone-else/9", "check_id": SELFTEST_CHECK_ID}
        path.write_text(json.dumps(payload))
        with pytest.raises(ReplayError, match=REPLAY_SCHEMA.replace("/", "/")):
            load_replay(path)

    def test_exotic_items_rejected_at_write_time(self, tmp_path):
        pair = (
            PartialRanking([[(0, 1)], [(2, 3)]]),
            PartialRanking([[(0, 1), (2, 3)]]),
        )
        with pytest.raises(ReplayError):
            write_replay(
                tmp_path / "case.json",
                SELFTEST_CHECK_ID,
                pair,
                seed=0,
                round_index=0,
                detail="",
            )


class TestSelfTest:
    def test_all_stages_pass(self, tmp_path):
        result = run_selftest(replay_dir=tmp_path, rounds=6, seed=0)
        assert result.caught_direct
        assert result.caught_fuzz
        assert result.shrunk_still_fails
        assert result.shrunk_domain_size <= 3
        assert result.replay_reproduces
        assert result.ok
        assert "PASS" in result.summary()


class TestCli:
    def test_clean_fuzz_exits_zero(self, capsys):
        assert verify_main(["--rounds", "3", "--seed", "1"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_list_checks(self, capsys):
        assert verify_main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        assert "oracle:kendall-p-half" in out
        assert "relation:hausdorff-witnesses" in out

    def test_json_format(self, capsys):
        assert verify_main(["--rounds", "2", "--seed", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["rounds"] == 2

    def test_bad_checks_pattern_exits_two(self, capsys):
        assert verify_main(["--rounds", "2", "--checks", "zzz-nope"]) == 2
        assert "matches no check id" in capsys.readouterr().err

    def test_nonpositive_rounds_exits_two(self, capsys):
        assert verify_main(["--rounds", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_replay_exit_codes(self, tmp_path, capsys):
        failing = tmp_path / "failing.json"
        write_replay(
            failing,
            SELFTEST_CHECK_ID,
            (PartialRanking([[0, 1], [2]]), PartialRanking([[0, 1, 2]])),
            seed=0,
            round_index=0,
            detail="",
        )
        assert verify_main(["--replay", str(failing)]) == 1
        assert "still reproduces" in capsys.readouterr().out
        fixed = tmp_path / "fixed.json"
        write_replay(
            fixed,
            "oracle:footrule",
            (PartialRanking([[0, 1], [2]]), PartialRanking([[0, 1, 2]])),
            seed=0,
            round_index=0,
            detail="",
        )
        assert verify_main(["--replay", str(fixed)]) == 0

    def test_missing_replay_file_exits_one(self, tmp_path, capsys):
        assert verify_main(["--replay", str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_self_test_via_top_level_cli(self, capsys, tmp_path, monkeypatch):
        # the ``python -m repro verify ...`` delegation path end to end
        from repro.cli import main as repro_main

        monkeypatch.chdir(tmp_path)
        assert repro_main(["verify", "--rounds", "2", "--seed", "1"]) == 0
        assert "OK" in capsys.readouterr().out
