import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as sp_stats

from scalefree.errors import DataFormatError, ParameterError
from scalefree.grouptests import (CLASSES, ONE_SAMPLE_NULLS, PARAMS, STATES,
                                  GroupTable, MapTaxonomy, aggregate,
                                  anova_decomposition, bonferroni,
                                  one_sample_t, paired_t_two_state,
                                  rm_anova_2way, run_battery,
                                  WSR_EXACT_MAX_N, _average_ranks,
                                  _sign_patterns, wilcoxon_signed_rank)

from oracles import anova_by_hand, battery_rows_by_hand, wsr_brute_force


def small_taxonomy():
    return MapTaxonomy(classes=("F", "F", "A", "U"),
                       tags=("Att", "Vis", "Ven", ""))


def interleaved_taxonomy():
    """Classes and tags interleaved, two or more units at every level."""
    return MapTaxonomy(
        classes=("A", "F", "U", "F", "A", "F", "U", "A", "F"),
        tags=("WhM", "Vis", "Xx", "Att", "Ven", "Vis", "", "WhM", ""))


def table_from(estimates, taxonomy=None):
    est = np.asarray(estimates, dtype=float)
    subjects = tuple(f"s{i}" for i in range(est.shape[0]))
    return GroupTable(estimates=est, taxonomy=taxonomy or small_taxonomy(),
                      subjects=subjects)


def random_table(seed=0, subjects=6, taxonomy=None):
    taxonomy = taxonomy or small_taxonomy()
    rng = np.random.default_rng(seed)
    est = rng.normal(0.6, 0.1, size=(subjects, taxonomy.n_maps, 2, 3))
    return table_from(est, taxonomy)


class TestTaxonomy:
    def test_unknown_class_rejected(self):
        with pytest.raises(DataFormatError, match="unknown class"):
            MapTaxonomy(classes=("F", "X"), tags=("", ""))

    def test_display_labels(self):
        tax = small_taxonomy()
        assert tax.display_labels() == ("f_1", "f_2", "a_1", "u_1")

    def test_counts_validation(self):
        tax = small_taxonomy()
        tax.assert_counts(2, 1, 1)
        with pytest.raises(DataFormatError, match="cardinalities"):
            tax.assert_counts(25, 13, 4)

    def test_network_and_artifact_split(self):
        units = small_taxonomy().units()
        assert units["network"] == {"Att": [0], "Vis": [1]}
        assert units["artifact"] == {"Ven": [2]}

    def test_units_of_interleaved_taxonomy(self):
        units = interleaved_taxonomy().units()
        assert list(units) == ["map", "class", "network", "artifact"]
        assert units["class"] == {"F": [1, 3, 5, 8], "A": [0, 4, 7],
                                  "U": [2, 6]}
        assert units["network"] == {"Vis": [1, 5], "Att": [3]}
        assert units["artifact"] == {"WhM": [0, 7], "Ven": [4]}

    @given(st.lists(st.tuples(st.sampled_from(CLASSES),
                              st.sampled_from(("", "a", "b", "c"))),
                    min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_units_property(self, maps):
        classes = tuple(c for c, _ in maps)
        tags = tuple(t for _, t in maps)
        tax = MapTaxonomy(classes=classes, tags=tags)
        units = tax.units()
        n = len(maps)
        # map: every index exactly once, under its display label
        assert list(units["map"]) == list(tax.display_labels())
        assert list(units["map"].values()) == [[k] for k in range(n)]
        # class: a partition of the indices, in CLASSES order
        assert list(units["class"]) == [c for c in CLASSES if c in classes]
        assert sorted(k for idx in units["class"].values() for k in idx) \
            == list(range(n))
        for cls, idx in units["class"].items():
            assert idx == [k for k in range(n) if classes[k] == cls]
        # network / artifact: exactly the tagged F / A maps, first-seen order
        for level, cls in (("network", "F"), ("artifact", "A")):
            tagged = [k for k in range(n) if classes[k] == cls and tags[k]]
            assert list(units[level]) == list(dict.fromkeys(
                tags[k] for k in tagged))
            assert sorted(k for idx in units[level].values() for k in idx) \
                == tagged
            for tag, idx in units[level].items():
                assert all(tags[k] == tag for k in idx)
        # tags on U maps name no unit
        tag_maps = {k for level in ("network", "artifact")
                    for idx in units[level].values() for k in idx}
        assert not any(classes[k] == "U" for k in tag_maps)


class TestAggregate:
    def test_single_subject_mean_is_identity(self):
        rng = np.random.default_rng(1)
        est = rng.normal(size=(1, 4, 2, 3))
        # aggregate needs >= 1 subjects; SD with ddof=1 is nan for n=1
        table = GroupTable(estimates=est, taxonomy=small_taxonomy(),
                           subjects=("only",))
        summary = aggregate(table)
        assert np.allclose(np.stack(list(summary.means["map"].values())),
                           est[0])

    def test_three_subject_spreadsheet_oracle(self):
        # hand-computable numbers
        est = np.zeros((3, 4, 2, 3))
        base = np.array([
            [0.6, 0.7, 0.8],
            [0.5, 0.6, 0.7],
            [0.4, 0.5, 0.9],
        ])
        for k in range(4):
            for j in range(2):
                est[:, k, j, :] = base + 0.1 * k + 0.05 * j
        table = table_from(est)
        summary = aggregate(table)
        # map mean for map 0, rest, param 0: mean(0.6, 0.5, 0.4) = 0.5
        assert summary.means["map"]["f_1"][0, 0] == pytest.approx(0.5, abs=1e-12)
        # class difference is the 0.05 shift everywhere
        assert np.allclose(list(summary.class_differences.values()), 0.05,
                           atol=1e-12)
        # class F mean over maps 0 and 1, task, param 2:
        # mean over subjects of base +0.05 +0.05*k -> (0.8+0.05+0.05*k)
        expected = np.mean([0.8 + 0.05, 0.8 + 0.05 + 0.1])
        assert summary.means["class"]["F"][1, 2] == pytest.approx(expected, 1e-12)

    def test_network_means(self):
        table = random_table(3)
        summary = aggregate(table)
        assert set(summary.means["network"]) == {"Att", "Vis"}
        assert set(summary.means["artifact"]) == {"Ven"}


class TestOneSampleT:
    def test_paper_example_values(self):
        res = one_sample_t([0.6, 0.7, 0.8], 0.5, "greater")
        assert res.statistic == pytest.approx(2 * math.sqrt(3), abs=1e-9)
        # closed-form df=2 one-sided p: (1 - t/sqrt(2+t^2))/2
        t = res.statistic
        closed = 0.5 * (1 - t / math.sqrt(2 + t * t))
        assert res.p_value == pytest.approx(closed, abs=1e-12)
        assert res.p_value == pytest.approx(0.0371, abs=0.0005)

    def test_all_equal_to_null_is_degenerate_p1(self):
        res = one_sample_t([0.5, 0.5, 0.5], 0.5, "greater")
        assert res.degenerate
        assert res.p_value == 1.0
        assert res.statistic == 0.0

    def test_symmetric_pattern_p_half(self):
        res = one_sample_t([0.5 - 0.1, 0.5, 0.5 + 0.1], 0.5, "greater")
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance_off_null_flagged(self):
        res = one_sample_t([0.7, 0.7, 0.7], 0.5, "greater")
        assert res.degenerate
        assert res.p_value == 0.0
        assert math.isinf(res.statistic)

    def test_matches_scipy_two_sided(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.2, 1.0, 12)
        res = one_sample_t(x, 0.0, "two")
        ref = sp_stats.ttest_1samp(x, 0.0)
        assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_needs_three(self):
        with pytest.raises(ParameterError):
            one_sample_t([0.5, 0.6], 0.5)


class TestWilcoxon:
    def test_all_positive_three(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0], 0.0, "greater")
        assert res.statistic == 6.0
        assert res.p_value == pytest.approx(1.0 / 8.0)

    def test_antisymmetric_two_sided_is_one(self):
        res = wilcoxon_signed_rank([-2.0, -1.0, 1.0, 2.0], 0.0, "two")
        assert res.p_value == 1.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", [4, 20])  # exact and normal paths
    def test_nan_value_gives_nan(self, sign, n):
        values = np.concatenate([[np.nan], sign * np.arange(1.0, n)])
        for sidedness in ("greater", "less", "two"):
            res = wilcoxon_signed_rank(values, 0.0, sidedness)
            assert math.isnan(res.statistic) and math.isnan(res.p_value)
            assert not res.degenerate and res.df == f"n={n}"

    def test_all_ties_degenerate(self):
        res = wilcoxon_signed_rank([0.5, 0.5, 0.5], 0.5, "greater")
        assert res.degenerate
        assert res.p_value == 1.0

    @pytest.mark.parametrize("sidedness", ["greater", "less", "two"])
    def test_brute_force_equivalence(self, sidedness):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            diffs = np.round(rng.normal(0.2, 1.0, n), 3)
            diffs = diffs[diffs != 0]
            if diffs.size < 3:
                continue
            res = wilcoxon_signed_rank(diffs, 0.0, sidedness)
            assert res.p_value == pytest.approx(
                wsr_brute_force(diffs, sidedness), abs=1e-12)

    def test_exact_vs_normal_agree_at_crossover(self):
        rng = np.random.default_rng(23)
        gaps = []
        for _ in range(40):
            x = rng.normal(0.3, 1.0, 12)
            exact = wilcoxon_signed_rank(x, 0.0, "greater").p_value
            from scalefree.grouptests import _wsr_normal_p
            ranks = sp_stats.rankdata(np.abs(x))
            w = float(ranks[x > 0].sum())
            approx = _wsr_normal_p(ranks, w, "greater")
            gaps.append(abs(exact - approx))
        assert np.mean(gaps) <= 0.02
        assert max(gaps) <= 0.05

    def test_scipy_agreement_no_ties(self):
        rng = np.random.default_rng(31)
        x = rng.normal(0.5, 1.0, 10)
        res = wilcoxon_signed_rank(x, 0.0, "greater")
        ref = sp_stats.wilcoxon(x, alternative="greater", mode="exact")
        assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    @pytest.mark.parametrize("sidedness, alternative", [
        ("greater", "greater"), ("less", "less"), ("two", "two-sided")])
    def test_normal_approximation_equals_scipy_with_ties(self, sidedness,
                                                         alternative):
        rng = np.random.default_rng(41)
        cases = []
        for _ in range(100):  # more than WSR_EXACT_MAX_N nonzero, tied
            n = int(rng.integers(WSR_EXACT_MAX_N + 1, 40))
            d = rng.integers(1, 6, n) * rng.choice([-1.0, 1.0], n)
            cases.append(np.concatenate([d, np.zeros(rng.integers(0, 3))]))
        cases.append(np.array([1.0, -1.0] * 7))  # W+ = n(n+1)/4: two-sided p 1
        for d in cases:
            res = wilcoxon_signed_rank(d, 0.0, sidedness)
            ref = sp_stats.wilcoxon(d, zero_method="wilcox", correction=True,
                                    method="approx", alternative=alternative)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12)


class TestBonferroni:
    def test_examples(self):
        assert np.allclose(bonferroni([0.01, 0.04]), [0.02, 0.08])
        assert bonferroni([0.001], family_size=42)[0] == pytest.approx(0.042)
        assert bonferroni([0.5], family_size=42)[0] == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            bonferroni([0.5, 1.2])

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=20),
           st.integers(1, 100))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_capped(self, ps, m):
        out = bonferroni(ps, family_size=m)
        assert np.all(out <= 1.0)
        assert np.all(out >= np.asarray(ps) - 1e-15)
        order = np.argsort(ps)
        assert np.all(np.diff(out[order]) >= -1e-15)


class TestPairedT:
    def test_identical_arrays(self):
        res = paired_t_two_state([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "two")
        assert res.degenerate
        assert res.p_value == 1.0
        assert res.statistic == 0.0

    def test_constant_shift_degenerate(self):
        rest = np.array([1.0, 2.0, 3.0])
        res = paired_t_two_state(rest, rest - 0.1, "greater")
        assert res.degenerate

    def test_equals_one_sample_on_differences(self):
        rng = np.random.default_rng(2)
        rest = rng.normal(0.8, 0.1, 12)
        task = rng.normal(0.7, 0.1, 12)
        paired = paired_t_two_state(rest, task, "greater")
        direct = one_sample_t(rest - task, 0.0, "greater")
        assert paired.statistic == direct.statistic
        assert paired.p_value == direct.p_value

    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=20),
           st.floats(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_shift_equivalence_property(self, base, shift):
        rest = np.asarray(base)
        task = rest - shift
        paired = paired_t_two_state(rest, task, "two")
        direct = one_sample_t(rest - task, 0.0, "two")
        assert paired.statistic == direct.statistic
        assert paired.p_value == direct.p_value

    def test_result_is_labelled_paired(self):
        res = paired_t_two_state([0.8, 0.9, 0.7], [0.7, 0.7, 0.6], "greater")
        assert res.test_kind == "t_two_paired"


class TestAnova:
    def test_hand_oracle_3x2x2(self):
        rng = np.random.default_rng(8)
        cells = rng.normal(size=(3, 2, 2))
        ours = anova_decomposition(cells)
        ref = anova_by_hand(cells)
        for key in ("total", "subject", "A", "B", "AxB", "AxS", "BxS", "AxBxS"):
            assert ours[key] == pytest.approx(ref[key], rel=1e-9, abs=1e-12)
        res_a, res_b, res_ab = rm_anova_2way(cells)
        assert res_a.statistic == pytest.approx(ref["F_A"], rel=1e-9)
        assert res_b.statistic == pytest.approx(ref["F_B"], rel=1e-9)
        assert res_ab.statistic == pytest.approx(ref["F_AB"], rel=1e-9)

    def test_df_structure(self):
        cells = np.random.default_rng(0).normal(size=(12, 2, 25))
        res_a, res_b, res_ab = rm_anova_2way(cells)
        assert res_a.df == "(1, 11)"
        assert res_b.df == "(24, 264)"
        assert res_ab.df == "(24, 264)"

    def test_pure_state_effect_detected(self):
        rng = np.random.default_rng(10)
        detected_state, big_map, big_inter = 0, 0, 0
        for _ in range(20):
            cells = rng.normal(0, 0.1, size=(8, 2, 4))
            cells[:, 1, :] += 1.0
            res_a, res_b, res_ab = rm_anova_2way(cells)
            detected_state += res_a.p_value < 0.01
            big_map += res_b.p_value < 0.3
            big_inter += res_ab.p_value < 0.05
        assert detected_state == 20
        assert big_map <= 8
        assert big_inter <= 4

    def test_decomposition_sums(self):
        rng = np.random.default_rng(21)
        cells = rng.normal(size=(6, 3, 5))
        ss = anova_decomposition(cells)
        parts = (ss["subject"] + ss["A"] + ss["B"] + ss["AxB"]
                 + ss["AxS"] + ss["BxS"] + ss["AxBxS"])
        assert parts == pytest.approx(ss["total"], rel=1e-9)

    @given(subjects=st.integers(3, 14), levels_a=st.integers(2, 3),
           levels_b=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_memory_layout_leaves_results_unchanged(self, subjects, levels_a,
                                                    levels_b, seed):
        """The same values in C order, in Fortran order or as transposed,
        non-contiguous views give bitwise-equal sums of squares and tests."""
        cells = np.random.default_rng(seed).normal(
            size=(subjects, levels_a, levels_b))
        layouts = (np.asfortranarray(cells),
                   cells.transpose(2, 1, 0).copy().transpose(2, 1, 0),
                   cells.transpose(0, 2, 1).copy().transpose(0, 2, 1))
        # repr tells apart every bit of a float and matches nan with nan
        expected = (repr(anova_decomposition(cells)),
                    repr(rm_anova_2way(cells)))
        for y in layouts:
            assert not y.flags.c_contiguous
            assert (repr(anova_decomposition(y)),
                    repr(rm_anova_2way(y))) == expected

    def test_permutation_null_uniform(self):
        rng = np.random.default_rng(99)
        n_perm = 500
        base = rng.normal(size=(8, 2, 4))
        pvals = []
        for _ in range(n_perm):
            cells = base.copy()
            flips = rng.integers(0, 2, size=8).astype(bool)
            cells[flips] = cells[flips][:, ::-1, :]
            pvals.append(rm_anova_2way(cells)[0].p_value)
        ks = sp_stats.kstest(pvals, "uniform").statistic
        assert ks < 0.1

    def test_unbalanced_rejected(self):
        cells = np.random.default_rng(0).normal(size=(4, 2, 3))
        cells[1, 0, 1] = np.nan
        with pytest.raises(ParameterError, match="unbalanced"):
            rm_anova_2way(cells)

    def test_zero_error_variance_degenerate(self):
        cells = np.zeros((4, 2, 3))
        cells[:, 1, :] = 1.0  # no subject-by-state variability at all
        res_a, _, _ = rm_anova_2way(cells)
        assert res_a.degenerate

    def test_type_i_error_rates(self):
        rng = np.random.default_rng(1234)
        n_sim = 2000
        rejections = {"t": 0, "wsr": 0, "anova": 0}
        for _ in range(n_sim):
            x = rng.normal(0.0, 1.0, 10)
            if one_sample_t(x, 0.0, "two").p_value < 0.05:
                rejections["t"] += 1
            if wilcoxon_signed_rank(x, 0.0, "two").p_value < 0.05:
                rejections["wsr"] += 1
        for _ in range(n_sim // 4):
            cells = rng.normal(size=(6, 2, 3))
            if rm_anova_2way(cells)[0].p_value < 0.05:
                rejections["anova"] += 1
        assert 0.03 <= rejections["t"] / n_sim <= 0.07
        assert 0.03 <= rejections["wsr"] / n_sim <= 0.07
        assert 0.03 <= rejections["anova"] / (n_sim // 4) <= 0.07


class TestBattery:
    def test_alpha_levels_outside_0_1_rejected(self):
        for levels, bad in (((0.0, 7.0), "0.0"), ((0.05, 1.0), "1.0"),
                            ((math.nan,), "nan")):
            with pytest.raises(ParameterError) as exc:
                run_battery(random_table(0), alpha_levels=levels)
            assert str(exc.value) == f"alpha_levels: {bad} outside (0, 1)"

    def test_structure_and_labels(self):
        table = random_table(0)
        report = run_battery(table)
        assert set(report.one_sample) >= {"map", "class"}
        assert set(report.one_sample["map"]) == {"f_1", "f_2", "a_1", "u_1"}
        block = report.one_sample["map"]["f_1"]["rest"]["c1"]
        assert set(block) == {"t", "wsr"}
        assert block["t"].p_corrected is not None
        assert block["t"].p_corrected >= block["t"].p_value
        assert set(report.anova) == {"F", "network"}  # A/U have single units
        assert set(report.two_sample["map"]) == {"f_1", "f_2", "a_1", "u_1"}

    @pytest.mark.parametrize("taxonomy", [small_taxonomy(),
                                          interleaved_taxonomy()])
    def test_corrections_come_from_bonferroni(self, taxonomy):
        report = run_battery(random_table(11, taxonomy=taxonomy))
        for level, units in report.one_sample.items():
            for state in STATES:
                for param in PARAMS:
                    for test in ("t", "wsr"):
                        results = [units[u][state][param][test] for u in units]
                        expected = bonferroni([r.p_value for r in results])
                        assert [r.p_corrected for r in results] \
                            == list(expected), (level, state, param, test)

    def test_state_effect_detected_in_battery(self):
        rng = np.random.default_rng(3)
        est = np.empty((12, 4, 2, 3))
        est[:, :, 0, :] = rng.normal(0.8, 0.05, size=(12, 4, 3))
        est[:, :, 1, :] = rng.normal(0.65, 0.05, size=(12, 4, 3))
        report = run_battery(table_from(est))
        assert report.anova["F"]["c1"]["State"].p_value < 0.05
        assert report.two_sample["class"]["F"]["c1"].p_value < 0.01

    def test_single_map_table_skips_anova(self):
        rng = np.random.default_rng(4)
        tax = MapTaxonomy(classes=("F",), tags=("Att",))
        table = GroupTable(estimates=rng.normal(0.6, 0.1, size=(5, 1, 2, 3)),
                           taxonomy=tax, subjects=tuple("abcde"))
        with pytest.warns(UserWarning, match="skipped"):
            report = run_battery(table)
        assert report.anova == {}
        assert "f_1" in report.one_sample["map"]

    def test_json_and_rows_serialization(self):
        report = run_battery(random_table(6))
        doc = report.to_json_dict()
        assert "one_sample" in doc and "anova" in doc
        rows = report.to_rows()
        assert all(len(r) == 8 for r in rows)
        levels = {r[0] for r in rows}
        assert "map" in levels and any(l.startswith("anova:") for l in levels)

    @pytest.mark.parametrize("subjects", [5, 14])  # WSR exact, normal
    def test_rows_equal_per_cell_oracle(self, subjects):
        """Every row, in order, equals the one built from per-cell means;
        the U class (one map) and the network level (one unit) skip their
        ANOVAs, the tag on the U map names no unit, and zero c2 and equal
        states on some maps give degenerate results."""
        taxonomy = MapTaxonomy(
            classes=("F", "A", "F", "U", "F", "A", "F"),
            tags=("Vis", "WhM", "Vis", "Xx", "Vis", "Ven", ""))
        table = random_table(21, subjects=subjects, taxonomy=taxonomy)
        est = table.estimates.copy()
        est[:, 0, :, 1] = 0.0
        est[:, 3, 1, :] = est[:, 3, 0, :]
        table = table_from(est, taxonomy)
        with pytest.warns(UserWarning, match="skipped") as record:
            rows = run_battery(table).to_rows()
        assert [str(w.message) for w in record] == [
            "ANOVA for 'U' skipped: needs >= 2 factor levels",
            "ANOVA for 'network' skipped: needs >= 2 factor levels"]
        expected = battery_rows_by_hand(table)
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert all(a == b or (a != a and b != b)  # nan equals nan
                       for a, b in zip(row, want)), (row, want)
        assert any(math.isnan(row[5]) for row in rows)
        assert {row[0] for row in rows} == {
            "map", "class", "network", "artifact", "anova:F", "anova:A",
            "anova:artifact", "two_sample:map", "two_sample:class",
            "two_sample:network", "two_sample:artifact"}

    def test_missing_cell_rejected(self):
        est = np.random.default_rng(0).normal(size=(4, 4, 2, 3))
        est[2, 1, 0, 1] = np.nan
        with pytest.raises(ParameterError, match="missing cell"):
            table_from(est)


def wsr_normal_p_by_scipy(values, mu0, sidedness):
    """The normal-approximation Wilcoxon p-value from scipy.stats' rankdata
    and norm, with the battery's continuity and tie corrections."""
    d = np.asarray(values, dtype=np.float64) - mu0
    d = d[d != 0.0]
    ranks = sp_stats.rankdata(np.abs(d))
    w = float(ranks[d > 0].sum())
    n = d.size
    mean = n * (n + 1) / 4.0
    _, ties = np.unique(ranks, return_counts=True)
    sd = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0
                   - float(np.sum(ties**3 - ties)) / 48.0)
    if sidedness == "greater":
        return float(sp_stats.norm.sf((w - mean - 0.5) / sd))
    if sidedness == "less":
        return float(sp_stats.norm.cdf((w - mean + 0.5) / sd))
    z = (w - mean - 0.5 * np.sign(w - mean)) / sd
    return float(min(1.0, 2.0 * sp_stats.norm.sf(abs(z))))


class TestScipyParity:
    """The battery's scipy.special calls and rank helper give the bits of
    the scipy.stats functions they replace."""

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
                              st.floats(-1e6, 1e6)), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_average_ranks_equal_rankdata(self, values):
        for a in (np.array(values, dtype=np.float64),
                  np.abs(np.array(values, dtype=np.float64))):
            ranks = _average_ranks(a)
            ref = sp_stats.rankdata(a)
            assert ranks.dtype == ref.dtype
            assert np.array_equal(ranks, ref)

    def test_average_ranks_propagate_nan(self):
        a = np.array([1.0, np.nan, 1.0])
        assert np.array_equal(_average_ranks(a), sp_stats.rankdata(a),
                              equal_nan=True)

    def test_special_functions_equal_distributions(self):
        rng = np.random.default_rng(5)
        edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
        x = np.concatenate([edges, rng.normal(0.0, 3.0, 200),
                            rng.standard_cauchy(50)])
        same = lambda a, b: np.array_equal(a, b, equal_nan=True)  # noqa: E731
        for df in (1, 2, 5, 11, 41, 1000):
            assert same(special.stdtr(df, -x), sp_stats.t.sf(x, df))
            assert same(special.stdtr(df, x), sp_stats.t.cdf(x, df))
        assert same(special.ndtr(-x), sp_stats.norm.sf(x))
        assert same(special.ndtr(x), sp_stats.norm.cdf(x))
        # an F statistic is a ratio of sums of squares: never below 0, where
        # fdtrc is nan and f.sf is 1
        f = np.abs(x)
        for d1, d2 in ((1, 2), (1, 11), (2, 22), (41, 451)):
            assert same(special.fdtrc(d1, d2, f), sp_stats.f.sf(f, d1, d2))

    def test_normal_wilcoxon_and_f_tests_end_to_end(self):
        table = random_table(8, subjects=WSR_EXACT_MAX_N + 2,
                             taxonomy=interleaved_taxonomy())
        report = run_battery(table)
        blocks = {level: {unit: table.estimates[:, idx].mean(axis=1)
                          for unit, idx in units.items()}
                  for level, units in table.taxonomy.units().items() if units}
        n_checked = 0
        for level, units in report.one_sample.items():
            for unit, states in units.items():
                for j, state in enumerate(STATES):
                    for ip, param in enumerate(PARAMS):
                        mu0, sidedness = ONE_SAMPLE_NULLS[param]
                        p = wsr_normal_p_by_scipy(
                            blocks[level][unit][:, j, ip], mu0, sidedness)
                        assert states[state][param]["wsr"].p_value == p
                        n_checked += 1
        assert n_checked == sum(len(u) for u in blocks.values()) * 6
        f_tests = [res for sources in report.anova.values()
                   for results in sources.values() for res in results.values()]
        assert len(f_tests) == 5 * 3 * 3  # 5 ANOVAs x 3 parameters x 3 effects
        for res in f_tests:
            d1, d2 = map(int, res.df.strip("()").split(", "))
            assert res.p_value == float(sp_stats.f.sf(res.statistic, d1, d2))

    def test_sign_patterns_are_memoised_and_read_only(self):
        bits = _sign_patterns(5)
        assert _sign_patterns(5) is bits
        assert bits.shape == (32, 5)
        assert np.array_equal(bits.sum(axis=0), np.full(5, 16))
        with pytest.raises(ValueError):
            bits[0, 0] = 1
