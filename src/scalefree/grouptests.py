"""Group-level statistical battery over per-subject multifractal estimates.

One-sample location tests (Student t and Wilcoxon signed rank), paired
two-state tests, Bonferroni correction, and 2-way repeated-measures ANOVA
with both factors within subject.  Sidedness conventions: c1 and H are
tested one-sided (greater than 0.5 against the white-noise null; rest
greater than task in the paired tests); c2 is tested against 0, one-sided
(less) in the one-sample battery and two-sided in the paired battery.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats as sp_stats

from .errors import DataFormatError, ParameterError

CLASSES = ("F", "A", "U")
STATES = ("rest", "task")
PARAMS = ("c1", "c2", "H")
WSR_EXACT_MAX_N = 12
SIDEDNESS = ("greater", "less", "two")
TAG_LEVELS = {"F": "network", "A": "artifact"}  # the level a class's tags name


@dataclass(frozen=True)
class MapTaxonomy:
    """Per-map F/A/U class plus optional network or artifact-type tag."""

    classes: tuple
    tags: tuple

    def __post_init__(self):
        if len(self.classes) != len(self.tags):
            raise DataFormatError("classes and tags must have equal length")
        for i, c in enumerate(self.classes):
            if c not in CLASSES:
                raise DataFormatError(
                    f"map {i + 1}: unknown class {c!r} (expected one of {CLASSES})"
                )

    @property
    def n_maps(self) -> int:
        return len(self.classes)

    def indices(self, cls: str):
        return [i for i, c in enumerate(self.classes) if c == cls]

    def units(self) -> dict:
        """{level: {unit: [map indices]}} for the four group levels: each
        map under its display label, the non-empty classes in CLASSES
        order, and the network tags of F maps and artifact-type tags of A
        maps in first-seen order (tags on U maps are no unit)."""
        units = {
            "map": {lab: [k] for k, lab in enumerate(self.display_labels())},
            "class": {c: self.indices(c) for c in CLASSES if c in self.classes},
            "network": {},
            "artifact": {},
        }
        for k, (c, t) in enumerate(zip(self.classes, self.tags)):
            if t and c in TAG_LEVELS:
                units[TAG_LEVELS[c]].setdefault(t, []).append(k)
        return units

    def display_labels(self) -> tuple:
        """Paper-style labels f_1.., a_1.., u_1.. in map order."""
        counters = {c: 0 for c in CLASSES}
        labels = []
        for c in self.classes:
            counters[c] += 1
            labels.append(f"{c.lower()}_{counters[c]}")
        return tuple(labels)

    def assert_counts(self, n_f: int, n_a: int, n_u: int) -> None:
        actual = {c: len(self.indices(c)) for c in CLASSES}
        expected = {"F": n_f, "A": n_a, "U": n_u}
        if actual != expected:
            raise DataFormatError(
                f"class cardinalities {actual} do not match declared {expected}"
            )


@dataclass(frozen=True)
class GroupTable:
    """Estimates indexed (subject, map, state, parameter).

    states axis is ordered ('rest', 'task'); parameters axis is ordered
    ('c1', 'c2', 'H').  Every cell must be finite (listwise completeness is
    enforced upstream).
    """

    estimates: np.ndarray
    taxonomy: MapTaxonomy
    subjects: tuple

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=np.float64)
        if est.ndim != 4 or est.shape[2] != 2 or est.shape[3] != len(PARAMS):
            raise ParameterError(
                f"estimates must have shape (S, K, 2, {len(PARAMS)}); got {est.shape}"
            )
        if est.shape[0] != len(self.subjects):
            raise ParameterError("subject axis does not match subject labels")
        if est.shape[1] != self.taxonomy.n_maps:
            raise ParameterError("map axis does not match the taxonomy")
        if not np.all(np.isfinite(est)):
            s, k, j, i = np.argwhere(~np.isfinite(est))[0]
            raise ParameterError(
                f"missing cell: subject {self.subjects[s]!r}, map {k + 1}, "
                f"state {STATES[j]}, parameter {PARAMS[i]}"
            )
        object.__setattr__(self, "estimates", est)

    @property
    def n_subjects(self) -> int:
        return self.estimates.shape[0]

    @property
    def n_maps(self) -> int:
        return self.estimates.shape[1]

    def subject_means(self, map_indices, state: int, param: int) -> np.ndarray:
        """Per-subject average over a map subset."""
        idx = np.asarray(list(map_indices), dtype=int)
        return self.estimates[:, idx, state, param].mean(axis=1)


@dataclass(frozen=True)
class GroupSummary:
    """Group means per level and unit, and rest-to-task class differences."""

    means: dict              # level -> unit -> (2, P) mean over its maps
    class_differences: dict  # class -> (P,), task - rest


def aggregate(table: GroupTable) -> GroupSummary:
    """Means of every unit of taxonomy.units(), each over its maps' means."""
    units = table.taxonomy.units()
    for cls in CLASSES:
        if cls not in units["class"]:
            warnings.warn(f"class {cls} is empty; skipped in aggregation",
                          stacklevel=2)
    map_means = table.estimates.mean(axis=0)
    return GroupSummary(
        means={level: {unit: map_means[idx].mean(axis=0)
                       for unit, idx in level_units.items()}
               for level, level_units in units.items()},
        class_differences={
            cls: (map_means[idx, 1, :] - map_means[idx, 0, :]).mean(axis=0)
            for cls, idx in units["class"].items()},
    )


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    df: str
    test_kind: str
    sidedness: str
    p_corrected: float | None = None
    degenerate: bool = False


def _check_sidedness(sidedness: str) -> None:
    if sidedness not in SIDEDNESS:
        raise ParameterError(f"sidedness {sidedness!r} not one of {SIDEDNESS}")


def one_sample_t(values, mu0: float, sidedness: str = "greater") -> TestResult:
    """Student t test of the mean against mu0 with an exact t-distribution
    p-value; zero-variance inputs yield a flagged degenerate result instead
    of an error."""
    _check_sidedness(sidedness)
    x = np.asarray(values, dtype=np.float64)
    if x.size < 3:
        raise ParameterError(f"need n >= 3 values, got {x.size}")
    n = x.size
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    df = n - 1
    # zero variance up to float rounding of identical inputs
    scale = max(float(np.max(np.abs(x))), abs(mu0), np.finfo(float).tiny)
    if sd <= 1e-12 * scale:
        if abs(mean - mu0) <= 1e-12 * scale:
            return TestResult(0.0, 1.0, f"{df}", "t_one", sidedness,
                              degenerate=True)
        t = math.copysign(math.inf, mean - mu0)
        return TestResult(t, 0.0, f"{df}", "t_one", sidedness, degenerate=True)
    t = (mean - mu0) / (sd / math.sqrt(n))
    if sidedness == "greater":
        p = float(sp_stats.t.sf(t, df))
    elif sidedness == "less":
        p = float(sp_stats.t.cdf(t, df))
    else:
        p = float(2.0 * sp_stats.t.sf(abs(t), df))
    return TestResult(t, p, f"{df}", "t_one", sidedness)


def _wsr_exact_p(ranks: np.ndarray, w_obs: float, sidedness: str) -> float:
    n = ranks.size
    masks = np.arange(2**n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n)) & 1
    w_all = bits @ ranks
    eps = 1e-9
    p_greater = float(np.mean(w_all >= w_obs - eps))
    p_less = float(np.mean(w_all <= w_obs + eps))
    if sidedness == "greater":
        return p_greater
    if sidedness == "less":
        return p_less
    return min(1.0, 2.0 * min(p_greater, p_less))


def _wsr_normal_p(ranks: np.ndarray, w_obs: float, sidedness: str) -> float:
    n = ranks.size
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    sd = math.sqrt(var)
    if sidedness == "greater":
        return float(sp_stats.norm.sf((w_obs - mean - 0.5) / sd))
    if sidedness == "less":
        return float(sp_stats.norm.cdf((w_obs - mean + 0.5) / sd))
    z = (w_obs - mean - 0.5 * math.copysign(1.0, w_obs - mean)) / sd
    return float(min(1.0, 2.0 * sp_stats.norm.sf(abs(z))))


def wilcoxon_signed_rank(values, mu0: float,
                         sidedness: str = "greater") -> TestResult:
    """Wilcoxon signed-rank location test against mu0.

    Exact enumeration over all 2^n sign patterns for n <= 12 (ties handled
    by average ranks), normal approximation with continuity and tie
    corrections above.  The statistic is the positive-rank sum W+.
    """
    _check_sidedness(sidedness)
    x = np.asarray(values, dtype=np.float64)
    diffs = x - mu0
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n == 0:
        return TestResult(float("nan"), 1.0, "0", "wsr", sidedness,
                          degenerate=True)
    if n < 3:
        raise ParameterError(f"need n >= 3 nonzero differences, got {n}")
    ranks = sp_stats.rankdata(np.abs(diffs))
    w_obs = float(ranks[diffs > 0].sum())
    if n <= WSR_EXACT_MAX_N:
        p = _wsr_exact_p(ranks, w_obs, sidedness)
    else:
        p = _wsr_normal_p(ranks, w_obs, sidedness)
    return TestResult(w_obs, p, f"n={n}", "wsr", sidedness)


def bonferroni(p_values, family_size: int | None = None) -> np.ndarray:
    """Multiply each p by the family size, capped at 1."""
    p = np.asarray(p_values, dtype=np.float64)
    if np.any((p < 0) | (p > 1)):
        raise ParameterError("p-values must lie in [0, 1]")
    m = p.size if family_size is None else int(family_size)
    if m < 1:
        raise ParameterError("family size must be >= 1")
    return np.minimum(1.0, m * p)


def paired_t_two_state(rest, task, sidedness: str = "greater") -> TestResult:
    """Paired t test on rest - task differences (one-sided: rest > task)."""
    r = np.asarray(rest, dtype=np.float64)
    t = np.asarray(task, dtype=np.float64)
    if r.shape != t.shape:
        raise ParameterError("rest and task must pair the same subjects")
    return replace(one_sample_t(r - t, 0.0, sidedness),
                   test_kind="t_two_paired")


def anova_decomposition(cells: np.ndarray) -> dict:
    """Sums of squares of the fully within-subject 2-factor design.

    cells has shape (subjects, levels_A, levels_B).  Error terms are the
    subject-by-factor interactions; sphericity is assumed.
    """
    y = np.asarray(cells, dtype=np.float64)
    if y.ndim != 3:
        raise ParameterError(f"cells must be 3-D (S, A, B); got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ParameterError("unbalanced design: cells contain non-finite values")
    s, a, b = y.shape
    if s < 3 or a < 2 or b < 2:
        raise ParameterError(
            f"need >= 3 subjects and >= 2 levels per factor; got {y.shape}"
        )
    grand = y.mean()
    m_s = y.mean(axis=(1, 2))
    m_a = y.mean(axis=(0, 2))
    m_b = y.mean(axis=(0, 1))
    m_sa = y.mean(axis=2)
    m_sb = y.mean(axis=1)
    m_ab = y.mean(axis=0)

    ss = {
        "subject": a * b * float(np.sum((m_s - grand) ** 2)),
        "A": s * b * float(np.sum((m_a - grand) ** 2)),
        "B": s * a * float(np.sum((m_b - grand) ** 2)),
        "AxB": s * float(np.sum(
            (m_ab - m_a[:, None] - m_b[None, :] + grand) ** 2)),
        "AxS": b * float(np.sum(
            (m_sa - m_s[:, None] - m_a[None, :] + grand) ** 2)),
        "BxS": a * float(np.sum(
            (m_sb - m_s[:, None] - m_b[None, :] + grand) ** 2)),
    }
    ss["total"] = float(np.sum((y - grand) ** 2))
    ss["AxBxS"] = ss["total"] - sum(
        ss[k] for k in ("subject", "A", "B", "AxB", "AxS", "BxS"))
    ss["df"] = {
        "A": a - 1, "B": b - 1, "AxB": (a - 1) * (b - 1),
        "AxS": (a - 1) * (s - 1), "BxS": (b - 1) * (s - 1),
        "AxBxS": (a - 1) * (b - 1) * (s - 1), "subject": s - 1,
    }
    return ss


def rm_anova_2way(cells: np.ndarray):
    """2-way repeated-measures ANOVA, both factors within subject.

    Returns three TestResults (factor A, factor B, interaction) with
    F statistics against the matching subject-by-factor error terms.
    """
    ss = anova_decomposition(cells)
    df = ss["df"]
    results = []
    for effect, error in (("A", "AxS"), ("B", "BxS"), ("AxB", "AxBxS")):
        ms_effect = ss[effect] / df[effect]
        ms_error = ss[error] / df[error]
        if ms_error <= 0.0:
            results.append(TestResult(
                float("nan"), float("nan"), f"({df[effect]}, {df[error]})",
                "anova_rm2", "two", degenerate=True))
            continue
        f_stat = ms_effect / ms_error
        p = float(sp_stats.f.sf(f_stat, df[effect], df[error]))
        results.append(TestResult(
            float(f_stat), p, f"({df[effect]}, {df[error]})",
            "anova_rm2", "two"))
    return tuple(results)


ONE_SAMPLE_NULLS = {"c1": (0.5, "greater"), "c2": (0.0, "less"),
                    "H": (0.5, "greater")}
TWO_SAMPLE_SIDEDNESS = {"c1": "greater", "c2": "two", "H": "greater"}


@dataclass(frozen=True)
class BatteryReport:
    """Nested battery results plus footnotes; see to_rows for the flat view."""

    one_sample: dict
    anova: dict
    two_sample: dict
    alpha_levels: tuple
    notes: tuple = field(default=(
        "sphericity assumed in repeated-measures ANOVAs (no correction)",
        "two-state tests are paired across subjects",
    ))

    def to_json_dict(self) -> dict:
        def conv(o, with_alpha=False):
            if isinstance(o, dict):
                return {k: conv(v, with_alpha) for k, v in o.items()}
            if isinstance(o, TestResult):
                d = {"statistic": o.statistic, "p": o.p_value, "df": o.df,
                     "test": o.test_kind, "sidedness": o.sidedness}
                if o.p_corrected is not None:
                    d["p_corrected"] = o.p_corrected
                if o.degenerate:
                    d["degenerate"] = True
                if with_alpha:
                    d["significant"] = {
                        str(a): bool(o.p_value < a) for a in self.alpha_levels
                    }
                return d
            return o
        return {
            "one_sample": conv(self.one_sample),
            "anova": conv(self.anova),
            "two_sample": conv(self.two_sample, with_alpha=True),
            "alpha_levels": list(self.alpha_levels),
            "notes": list(self.notes),
        }

    def to_rows(self):
        """Flat rows (level, unit, state, parameter, test, statistic, p,
        p_corrected) for CSV emission."""
        rows = []
        for level, units in self.one_sample.items():
            for unit, states in units.items():
                for state, params in states.items():
                    for param, tests in params.items():
                        for test, res in tests.items():
                            rows.append((level, unit, state, param, test,
                                         res.statistic, res.p_value,
                                         res.p_corrected))
        for level, params in self.anova.items():
            for param, sources in params.items():
                for source, res in sources.items():
                    rows.append(("anova:" + level, source, "both", param,
                                 res.test_kind, res.statistic, res.p_value,
                                 None))
        for level, units in self.two_sample.items():
            for unit, params in units.items():
                for param, res in params.items():
                    rows.append(("two_sample:" + level, unit, "rest-task",
                                 param, res.test_kind, res.statistic,
                                 res.p_value, None))
        return rows


def _one_sample_block(values_by_unit: dict, param: str) -> dict:
    mu0, sidedness = ONE_SAMPLE_NULLS[param]
    block = {}
    for unit, values in values_by_unit.items():
        block[unit] = {
            "t": one_sample_t(values, mu0, sidedness),
            "wsr": wilcoxon_signed_rank(values, mu0, sidedness),
        }
    for test in ("t", "wsr"):
        corrected = bonferroni([block[unit][test].p_value for unit in block])
        for unit, p in zip(block, corrected):
            block[unit][test] = replace(block[unit][test], p_corrected=float(p))
    return block


def run_battery(table: GroupTable, alpha_levels=(0.01, 0.05)) -> BatteryReport:
    """One-sample tests, ANOVAs and paired two-state tests at every level.

    Bonferroni families are the units tested together at a level (the K maps
    at map level, the class/network/artifact sets at aggregate levels);
    paired-test p-values are reported uncorrected with the alpha flags left
    to the consumer, as in the reference workflow.
    """
    all_units = table.taxonomy.units()
    level_units = {lvl: units for lvl, units in all_units.items() if units}

    one_sample = {}
    for level, units in level_units.items():
        one_sample[level] = {}
        for unit, idx in units.items():
            one_sample[level][unit] = {}
        for j, state in enumerate(STATES):
            for ip, param in enumerate(PARAMS):
                values_by_unit = {
                    unit: table.subject_means(idx, j, ip)
                    for unit, idx in units.items()
                }
                block = _one_sample_block(values_by_unit, param)
                for unit in units:
                    one_sample[level][unit].setdefault(state, {})[param] = \
                        block[unit]

    anova = {}
    labels = table.taxonomy.display_labels()
    anova_sets = {cls: ("Map", {labels[k]: [k] for k in idx})
                  for cls, idx in all_units["class"].items()}
    for level in TAG_LEVELS.values():
        if all_units[level]:
            anova_sets[level] = (level.capitalize(), all_units[level])
    for set_name, (factor_b, units) in anova_sets.items():
        if len(units) < 2:
            warnings.warn(
                f"ANOVA for {set_name!r} skipped: needs >= 2 factor levels",
                stacklevel=2,
            )
            continue
        anova[set_name] = {}
        for ip, param in enumerate(PARAMS):
            cells = np.stack(
                [np.stack([table.subject_means(idx, j, ip)
                           for idx in units.values()], axis=1)
                 for j in range(2)], axis=1,
            )  # (S, states, units)
            res_state, res_b, res_int = rm_anova_2way(cells)
            anova[set_name][param] = {
                "State": res_state, factor_b: res_b,
                f"State x {factor_b}": res_int,
            }

    two_sample = {}
    for level, units in level_units.items():
        two_sample[level] = {}
        for unit, idx in units.items():
            two_sample[level][unit] = {}
            for ip, param in enumerate(PARAMS):
                rest = table.subject_means(idx, 0, ip)
                task = table.subject_means(idx, 1, ip)
                two_sample[level][unit][param] = paired_t_two_state(
                    rest, task, TWO_SAMPLE_SIDEDNESS[param])

    return BatteryReport(one_sample=one_sample, anova=anova,
                         two_sample=two_sample, alpha_levels=tuple(alpha_levels))
