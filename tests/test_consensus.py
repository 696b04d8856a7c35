import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kendalls_w_oracle, mean_sd_oracle, screening_oracle
from stagekit import (
    DegenerateDataError,
    ExpertProfile,
    Familiarity,
    IdentityGroup,
    Impact,
    InsufficientDataError,
    InvalidInputError,
    JudgmentBasis,
    RatingRound,
    ScreeningThresholds,
    authority_coefficient,
    derive_thresholds,
    familiarity_coefficient,
    indicator_stats,
    judgment_coefficient,
    kendalls_w,
    positivity_coefficient,
    round_consensus,
    screen_indicators,
)


def make_profile(expert_id, familiarity, impacts):
    return ExpertProfile(
        id=expert_id,
        identity_group=IdentityGroup.TECHNOLOGY_RND,
        familiarity=familiarity,
        judgment_basis={basis: impacts[basis] for basis in JudgmentBasis},
    )


ALL_LARGE = {basis: Impact.LARGE for basis in JudgmentBasis}
ALL_SMALL = {basis: Impact.SMALL for basis in JudgmentBasis}


class TestPositivity:
    def test_full_return(self):
        assert positivity_coefficient(30, 30) == 1.0

    def test_partial_return(self):
        assert positivity_coefficient(30, 24) == pytest.approx(0.8)

    def test_survey_round_counts(self):
        # 25 issued, 20 back gives the 0.80 participation figure.
        assert positivity_coefficient(25, 20) == pytest.approx(0.8)

    def test_returned_exceeding_distributed_rejected(self):
        with pytest.raises(InvalidInputError):
            positivity_coefficient(10, 11)

    def test_zero_distributed_rejected(self):
        with pytest.raises(InvalidInputError):
            positivity_coefficient(0, 0)

    def test_negative_returned_rejected(self):
        with pytest.raises(InvalidInputError):
            positivity_coefficient(10, -1)


class TestJudgment:
    def test_all_theory_practice_large_hits_ceiling(self):
        profiles = [make_profile("e1", Familiarity.FAMILIAR, ALL_LARGE)]
        assert judgment_coefficient(profiles) == pytest.approx(1.0)

    def test_all_small_floor(self):
        profiles = [make_profile("e1", Familiarity.FAMILIAR, ALL_SMALL)]
        # 0.1 + 0.3 + 0.1 + 0.1 from the default table's "small" column.
        assert judgment_coefficient(profiles) == pytest.approx(0.6)

    def test_two_expert_mean(self):
        profiles = [
            make_profile("e1", Familiarity.FAMILIAR, ALL_LARGE),
            make_profile("e2", Familiarity.FAMILIAR, ALL_SMALL),
        ]
        assert judgment_coefficient(profiles) == pytest.approx(0.8)

    def test_matches_brute_force_mean(self):
        rng = np.random.default_rng(7)
        table = {
            JudgmentBasis.THEORETICAL_ANALYSIS: {
                Impact.LARGE: 0.3, Impact.MEDIUM: 0.2, Impact.SMALL: 0.1,
            },
            JudgmentBasis.PRACTICAL_EXPERIENCE: {
                Impact.LARGE: 0.5, Impact.MEDIUM: 0.4, Impact.SMALL: 0.3,
            },
            JudgmentBasis.PEER_REFERENCE: {
                Impact.LARGE: 0.1, Impact.MEDIUM: 0.1, Impact.SMALL: 0.1,
            },
            JudgmentBasis.INTUITION: {
                Impact.LARGE: 0.1, Impact.MEDIUM: 0.1, Impact.SMALL: 0.1,
            },
        }
        impacts_pool = list(Impact)
        profiles = []
        for i in range(20):
            impacts = {b: impacts_pool[rng.integers(0, 3)] for b in JudgmentBasis}
            profiles.append(make_profile(f"e{i}", Familiarity.MODERATE, impacts))
        expected = sum(
            sum(table[b][p.judgment_basis[b]] for b in JudgmentBasis)
            for p in profiles
        ) / len(profiles)
        assert judgment_coefficient(profiles) == pytest.approx(expected, abs=1e-12)

    def test_empty_panel_rejected(self):
        with pytest.raises(InvalidInputError):
            judgment_coefficient([])

    def test_profile_value_outside_its_enum_rejected(self):
        profile = dataclasses.replace(make_profile("e1", Familiarity.FAMILIAR, ALL_LARGE),
                                      identity_group="nobody")
        with pytest.raises(InvalidInputError, match=r"^expert e1: 'nobody' is not a value of its field$"):
            judgment_coefficient([profile])

    def test_malformed_table_rejected(self):
        table = {JudgmentBasis.THEORETICAL_ANALYSIS: {Impact.LARGE: 0.3}}
        profiles = [make_profile("e1", Familiarity.FAMILIAR, ALL_LARGE)]
        with pytest.raises(InvalidInputError):
            judgment_coefficient(profiles, table=table)


class TestFamiliarity:
    def test_uniform_very_familiar(self):
        profiles = [
            make_profile(f"e{i}", Familiarity.VERY_FAMILIAR, ALL_LARGE)
            for i in range(3)
        ]
        assert familiarity_coefficient(profiles) == pytest.approx(1.0)

    def test_mixed_pair(self):
        profiles = [
            make_profile("e1", Familiarity.FAMILIAR, ALL_LARGE),
            make_profile("e2", Familiarity.MODERATE, ALL_LARGE),
        ]
        assert familiarity_coefficient(profiles) == pytest.approx(0.7)

    def test_matches_mean_of_mapped_values(self):
        rng = np.random.default_rng(11)
        levels = list(Familiarity)
        scale = {
            Familiarity.VERY_FAMILIAR: 1.0,
            Familiarity.FAMILIAR: 0.8,
            Familiarity.MODERATE: 0.6,
            Familiarity.UNFAMILIAR: 0.4,
            Familiarity.VERY_UNFAMILIAR: 0.2,
        }
        profiles = [
            make_profile(f"e{i}", levels[rng.integers(0, 5)], ALL_LARGE)
            for i in range(20)
        ]
        expected = sum(scale[p.familiarity] for p in profiles) / len(profiles)
        assert familiarity_coefficient(profiles) == pytest.approx(expected, abs=1e-12)

    def test_empty_panel_rejected(self):
        with pytest.raises(InvalidInputError):
            familiarity_coefficient([])

    def test_incomplete_map_rejected(self):
        profiles = [make_profile("e1", Familiarity.FAMILIAR, ALL_LARGE)]
        with pytest.raises(InvalidInputError):
            familiarity_coefficient(profiles, mapping={Familiarity.FAMILIAR: 0.8})


class TestAuthority:
    # Published panel coefficients for the three survey rounds.
    CASES = [
        (0.8864, 0.8651, 0.87575),
        (0.9182, 0.8498, 0.8840),
        (0.8769, 0.8153, 0.8461),
    ]

    @pytest.mark.parametrize("ca, cs, expected", CASES)
    def test_reported_panels(self, ca, cs, expected):
        assert authority_coefficient(ca, cs) == pytest.approx(expected, abs=1.5e-4)

    def test_is_plain_average(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ca, cs = rng.uniform(0, 1, size=2)
            assert authority_coefficient(ca, cs) == pytest.approx(
                (ca + cs) / 2, abs=1e-15
            )

    def test_symmetry(self):
        assert authority_coefficient(0.3, 0.9) == authority_coefficient(0.9, 0.3)

    @pytest.mark.parametrize("ca, cs", [(-0.1, 0.5), (0.5, 1.2), (float("nan"), 0.5)])
    def test_out_of_range_rejected(self, ca, cs):
        with pytest.raises(InvalidInputError):
            authority_coefficient(ca, cs)


class TestIndicatorStats:
    def test_unanimous_full_scores(self):
        s = indicator_stats([5, 5, 5, 5], scale_max=5)
        assert s.mean == 5.0
        assert s.sd == 0.0
        assert s.cv == 0.0
        assert s.full_score_freq == 1.0

    def test_mixed_ratings(self):
        s = indicator_stats([4, 4, 5, 5, 5], scale_max=5)
        assert s.mean == pytest.approx(4.6)
        assert s.full_score_freq == pytest.approx(0.6)
        mean, sd = mean_sd_oracle([4, 4, 5, 5, 5])
        assert s.sd == pytest.approx(sd, abs=1e-12)
        assert s.cv == pytest.approx(sd / mean, abs=1e-12)

    def test_two_point_spread(self):
        s = indicator_stats([1, 5], scale_max=5)
        assert s.sd == pytest.approx(np.sqrt(8.0), abs=1e-12)
        assert s.cv == pytest.approx(np.sqrt(8.0) / 3.0, abs=1e-12)

    def test_sample_sd_convention(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            values = rng.integers(1, 6, size=int(rng.integers(2, 12))).tolist()
            mean, sd = mean_sd_oracle(values)
            s = indicator_stats(values, scale_max=5)
            assert s.mean == pytest.approx(mean, abs=1e-12)
            assert s.sd == pytest.approx(sd, abs=1e-12)

    def test_cv_zero_iff_sd_zero(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            values = rng.integers(1, 6, size=6).tolist()
            s = indicator_stats(values, scale_max=5)
            assert (s.cv == 0.0) == (s.sd == 0.0)

    def test_single_rating_rejected(self):
        with pytest.raises(InsufficientDataError):
            indicator_stats([5], scale_max=5)

    def test_out_of_scale_rejected(self):
        with pytest.raises(InvalidInputError):
            indicator_stats([4, 6], scale_max=5)
        with pytest.raises(InvalidInputError):
            indicator_stats([0, 4], scale_max=5)

    def test_nan_rating_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^ratings outside \[1, 5\]$"):
            indicator_stats([1, np.nan, 3], scale_max=5)


class TestKendallsW:
    def test_perfect_agreement(self):
        ratings = [[1, 2, 3, 4, 5]] * 4
        assert kendalls_w(ratings) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_agreement_any_shape(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 5):
            for n in (3, 4, 8):
                row = rng.permutation(n) + 1
                assert kendalls_w([row.tolist()] * m) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_disagreement_two_raters(self):
        ratings = [[1, 2, 3, 4], [4, 3, 2, 1]]
        assert kendalls_w(ratings) == pytest.approx(0.0, abs=1e-12)

    def test_matches_rank_sum_oracle(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(200):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(3, 9))
            ratings = rng.integers(1, 6, size=(m, n))
            if all(len(set(row)) == 1 for row in ratings.tolist()):
                continue  # denominator 0 for the oracle as well
            ours = kendalls_w(ratings.tolist())
            assert ours == pytest.approx(
                kendalls_w_oracle(ratings, correct_ties=True), abs=1e-12
            )
            checked += 1
        assert checked >= 150

    def test_uncorrected_matches_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            ratings = rng.integers(1, 6, size=(4, 6))
            assert kendalls_w(ratings.tolist(), correct_ties=False) == pytest.approx(
                kendalls_w_oracle(ratings, correct_ties=False), abs=1e-12
            )

    def test_no_ties_correction_is_noop(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            ratings = [list(rng.permutation(6) + 1) for _ in range(4)]
            assert kendalls_w(ratings, correct_ties=True) == pytest.approx(
                kendalls_w(ratings, correct_ties=False), abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(37)
        ratings = rng.integers(1, 6, size=(5, 7)).astype(float)
        base = kendalls_w(ratings.tolist())
        squeezed = (2.0 * ratings + 1.0) ** 3
        assert kendalls_w(squeezed.tolist()) == pytest.approx(base, abs=1e-12)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(41)
        ratings = rng.integers(1, 6, size=(5, 7))
        base = kendalls_w(ratings.tolist())
        perm = rng.permutation(7)
        assert kendalls_w(ratings[:, perm].tolist()) == pytest.approx(base, abs=1e-12)

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=150, deadline=None)
    def test_range_property(self, m, n, seed):
        rng = np.random.default_rng(seed)
        ratings = rng.integers(1, 6, size=(m, n)).tolist()
        try:
            w = kendalls_w(ratings)
        except DegenerateDataError:
            return
        assert -1e-12 <= w <= 1.0 + 1e-12

    def test_all_flat_rows_degenerate(self):
        with pytest.raises(DegenerateDataError):
            kendalls_w([[3, 3, 3], [4, 4, 4]])

    def test_single_rater_rejected(self):
        with pytest.raises(InsufficientDataError):
            kendalls_w([[1, 2, 3]])

    def test_single_indicator_rejected(self):
        with pytest.raises(InsufficientDataError):
            kendalls_w([[1], [2]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            kendalls_w([[1, 2, 3], [1, 2]])

    def test_missing_values_rejected(self):
        with pytest.raises(InvalidInputError):
            kendalls_w([[1.0, float("nan"), 3.0], [1.0, 2.0, 3.0]])


class TestThresholds:
    def test_identical_indicators(self):
        stats = {
            "a": indicator_stats([4, 4, 4, 4], scale_max=5),
            "b": indicator_stats([4, 4, 4, 4], scale_max=5),
        }
        t = derive_thresholds(stats)
        assert t.mean_floor == pytest.approx(4.0)
        assert t.cv_ceiling == pytest.approx(0.0)

    def test_two_point_means(self):
        stats = {
            "a": indicator_stats([3, 3, 3], scale_max=5),
            "b": indicator_stats([5, 5, 5], scale_max=5),
        }
        t = derive_thresholds(stats)
        # mean(3, 5) - 2 * sd(3, 5) = 4 - 2 * sqrt(2)
        assert t.mean_floor == pytest.approx(4 - 2 * np.sqrt(2), abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            stats = {
                f"i{k}": indicator_stats(
                    rng.integers(1, 6, size=8).tolist(), scale_max=5
                )
                for k in range(6)
            }
            t = derive_thresholds(stats)
            m_mean, m_sd = mean_sd_oracle([s.mean for s in stats.values()])
            f_mean, f_sd = mean_sd_oracle([s.full_score_freq for s in stats.values()])
            c_mean, c_sd = mean_sd_oracle([s.cv for s in stats.values()])
            assert t.mean_floor == pytest.approx(m_mean - 2 * m_sd, abs=1e-12)
            assert t.fsf_floor == pytest.approx(max(0.0, f_mean - 2 * f_sd), abs=1e-12)
            assert t.cv_ceiling == pytest.approx(c_mean + 2 * c_sd, abs=1e-12)

    def test_fsf_floor_clamped_at_zero(self):
        # Frequencies 0, 0, 0.9: mean - 2*sd is negative, so the floor clamps.
        stats = {
            "a": indicator_stats([4, 4, 4], scale_max=5),
            "b": indicator_stats([3, 3, 3], scale_max=5),
            "c": indicator_stats([5, 5, 5, 5, 5, 5, 5, 5, 5, 4], scale_max=5),
        }
        t = derive_thresholds(stats)
        assert t.fsf_floor == 0.0

    def test_population_mean_indicator_survives_own_thresholds(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            stats = {
                f"i{k}": indicator_stats(
                    rng.integers(3, 6, size=12).tolist(), scale_max=5
                )
                for k in range(10)
            }
            t = derive_thresholds(stats)
            result = screen_indicators(stats, t)
            # An indicator sitting exactly at the across-indicator means
            # passes every rule (each cutoff is two sds away from the mean).
            mid = dataclasses.replace(
                stats["i0"],
                mean=float(np.mean([s.mean for s in stats.values()])),
                full_score_freq=float(
                    np.mean([s.full_score_freq for s in stats.values()])
                ),
                cv=float(np.mean([s.cv for s in stats.values()])),
            )
            mid_result = screen_indicators({"mid": mid}, t)
            assert mid_result.retained == ("mid",)
            assert set(result.retained) | set(result.dropped) == set(stats)

    def test_single_indicator_rejected(self):
        stats = {"a": indicator_stats([4, 5], scale_max=5)}
        with pytest.raises(InsufficientDataError):
            derive_thresholds(stats)


class TestScreening:
    def test_boundary_equality_retains(self):
        stats = {"a": indicator_stats([4, 4, 5, 5, 5], scale_max=5)}
        t = ScreeningThresholds(
            mean_floor=stats["a"].mean,
            fsf_floor=stats["a"].full_score_freq,
            cv_ceiling=stats["a"].cv,
        )
        result = screen_indicators(stats, t)
        assert result.retained == ("a",)
        assert result.dropped == ()

    def test_each_rule_fails_independently(self):
        stats = {"a": indicator_stats([4, 4, 5, 5, 5], scale_max=5)}
        s = stats["a"]
        eps = 1e-9
        for kwargs, reason in [
            (dict(mean_floor=s.mean + eps, fsf_floor=0.0, cv_ceiling=9.0), "mean"),
            (dict(mean_floor=0.0, fsf_floor=s.full_score_freq + eps, cv_ceiling=9.0), "fsf"),
            (dict(mean_floor=0.0, fsf_floor=0.0, cv_ceiling=s.cv - eps), "cv"),
        ]:
            result = screen_indicators(stats, ScreeningThresholds(**kwargs))
            assert result.dropped == ("a",)
            assert result.reasons["a"] == (reason,)

    def test_matches_rule_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            stats = {
                f"i{k}": indicator_stats(
                    rng.integers(1, 6, size=10).tolist(), scale_max=5
                )
                for k in range(8)
            }
            t = ScreeningThresholds(
                mean_floor=float(rng.uniform(2.5, 4.5)),
                fsf_floor=float(rng.uniform(0.0, 0.6)),
                cv_ceiling=float(rng.uniform(0.1, 0.6)),
            )
            result = screen_indicators(stats, t)
            verdicts = screening_oracle(stats, t)
            for indicator_id, failures in verdicts.items():
                if failures:
                    assert indicator_id in result.dropped
                    assert list(result.reasons[indicator_id]) == failures
                else:
                    assert indicator_id in result.retained

    def test_favourable_perturbation_never_drops(self):
        rng = np.random.default_rng(53)
        t = ScreeningThresholds(mean_floor=3.5, fsf_floor=0.2, cv_ceiling=0.4)
        for _ in range(200):
            values = rng.integers(3, 6, size=10).tolist()
            stats = {"a": indicator_stats(values, scale_max=5)}
            if screen_indicators(stats, t).retained != ("a",):
                continue
            s = stats["a"]
            better = dataclasses.replace(
                s,
                mean=s.mean + float(rng.uniform(0, 0.5)),
                full_score_freq=min(1.0, s.full_score_freq + float(rng.uniform(0, 0.2))),
                cv=max(0.0, s.cv - float(rng.uniform(0, 0.1))),
            )
            assert screen_indicators({"a": better}, t).retained == ("a",)

    def test_empty_stats_yield_empty_verdicts(self):
        t = ScreeningThresholds(mean_floor=1.0, fsf_floor=0.0, cv_ceiling=1.0)
        result = screen_indicators({}, t)
        assert result.retained == ()
        assert result.dropped == ()
        assert result.reasons == {}

    def test_threshold_validation(self):
        with pytest.raises(InvalidInputError):
            ScreeningThresholds(mean_floor=4.0, fsf_floor=-0.1, cv_ceiling=0.5)
        with pytest.raises(InvalidInputError):
            ScreeningThresholds(mean_floor=4.0, fsf_floor=0.1, cv_ceiling=-0.5)
        with pytest.raises(InvalidInputError):
            ScreeningThresholds(mean_floor=float("inf"), fsf_floor=0.1, cv_ceiling=0.5)


class TestRoundConsensus:
    def make_round(self):
        return RatingRound(
            round_no=1,
            scale_max=5,
            distributed=4,
            indicator_ids=("a", "b", "c"),
            ratings={
                "e1": (5, 4, 3),
                "e2": (5, 3, 4),
                "e3": (4, 5, 3),
            },
        )

    def test_summary_fields(self):
        rnd = self.make_round()
        profiles = [
            make_profile("e1", Familiarity.VERY_FAMILIAR, ALL_LARGE),
            make_profile("e2", Familiarity.FAMILIAR, ALL_LARGE),
            make_profile("e3", Familiarity.MODERATE, ALL_SMALL),
        ]
        rc = round_consensus(rnd, profiles=profiles)
        assert rc.round_no == 1
        assert rc.positivity == pytest.approx(0.75)
        assert rc.cs == pytest.approx(0.8)
        assert rc.ca == pytest.approx((1.0 + 1.0 + 0.6) / 3)
        assert rc.cr == pytest.approx((rc.ca + rc.cs) / 2, abs=1e-15)
        assert rc.kendall_w == pytest.approx(
            kendalls_w_oracle(np.array(rnd.ratings.matrix)), abs=1e-12
        )
        assert set(rc.stats) == {"a", "b", "c"}
        assert rc.stats["a"].mean == pytest.approx(14 / 3)

    def test_without_profiles(self):
        rc = round_consensus(self.make_round())
        assert rc.ca is None and rc.cs is None and rc.cr is None
        assert rc.kendall_w is not None

    def test_profiles_restricted_to_respondents(self):
        rnd = self.make_round()
        profiles = [
            make_profile("e1", Familiarity.VERY_FAMILIAR, ALL_LARGE),
            make_profile("e2", Familiarity.VERY_FAMILIAR, ALL_LARGE),
            make_profile("e3", Familiarity.VERY_FAMILIAR, ALL_LARGE),
            # A profile for someone who did not respond must not shift Cs.
            make_profile("e9", Familiarity.VERY_UNFAMILIAR, ALL_SMALL),
        ]
        rc = round_consensus(rnd, profiles=profiles)
        assert rc.cs == pytest.approx(1.0)

    def test_missing_profile_rejected(self):
        rnd = self.make_round()
        profiles = [make_profile("e1", Familiarity.FAMILIAR, ALL_LARGE)]
        with pytest.raises(InvalidInputError):
            round_consensus(rnd, profiles=profiles)

    def test_repeated_profile_id_rejected(self):
        rnd = self.make_round()
        profiles = [
            make_profile("e1", Familiarity.VERY_FAMILIAR, ALL_LARGE),
            make_profile("e2", Familiarity.FAMILIAR, ALL_LARGE),
            make_profile("e3", Familiarity.FAMILIAR, ALL_LARGE),
            make_profile("e2", Familiarity.VERY_UNFAMILIAR, ALL_SMALL),
        ]
        with pytest.raises(InvalidInputError, match=r"^two expert profiles with id 'e2'$"):
            round_consensus(rnd, profiles=profiles)

    def test_single_respondent_rejected(self):
        rnd = RatingRound(
            round_no=1,
            scale_max=5,
            distributed=1,
            indicator_ids=("a", "b"),
            ratings={"e1": (5, 4)},
        )
        with pytest.raises(InsufficientDataError):
            round_consensus(rnd)

    def test_custom_tables_respected(self):
        rnd = self.make_round()
        profiles = [
            make_profile("e1", Familiarity.FAMILIAR, ALL_LARGE),
            make_profile("e2", Familiarity.FAMILIAR, ALL_LARGE),
            make_profile("e3", Familiarity.FAMILIAR, ALL_LARGE),
        ]
        flat_table = {
            b: {Impact.LARGE: 0.25, Impact.MEDIUM: 0.25, Impact.SMALL: 0.25}
            for b in JudgmentBasis
        }
        flat_map = {level: 0.5 for level in Familiarity}
        rc = round_consensus(rnd, profiles=profiles, ca_table=flat_table, cs_map=flat_map)
        assert rc.ca == pytest.approx(1.0)
        assert rc.cs == pytest.approx(0.5)
        assert rc.cr == pytest.approx(0.75)
