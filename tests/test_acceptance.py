"""Gate suite: one test per criterion, one printed verdict line each.

Every check runs on a frozen master seed and pinned tolerances, so these
results are reproducible bit for bit within one build.  Each test also pins
the criterion's details string (the observed numbers, without the timing),
so a change that moves any reported number shows here even when the verdict
holds.  Run with -s to see the verdict lines as they complete.
"""

from hammingperc import acceptance


def _check(result, details):
    print(result.line())
    assert result.passed, result.line()
    assert result.details == details


def test_criterion_01_small_graph_exact_agreement():
    _check(acceptance.criterion_1_small_graph_exact(),
           "worst deviation 1.87 std errors (limit 3) over 3 probabilities x "
           "5 quantities, 100000 replicas each")


def test_criterion_02_progeny_mass_vs_extinction():
    _check(acceptance.criterion_2_progeny_mass(),
           "|sum - a| = 3.32e-12 (limit 1e-06), max overshoot 3.32e-12 (limit "
           "1e-09)")


def test_criterion_03_near_critical_tail_band():
    _check(acceptance.criterion_3_tail_band(),
           "|tail(10000) - 2eps| = 0.00625 (limit 0.02750)")


def test_criterion_04_survival_asymptotic_band():
    _check(acceptance.criterion_4_survival_asymptotic(),
           "max |zeta - 2eps| / eps^2 = 2.62 (limit 5)")


def test_criterion_05_largest_component_lln():
    _check(acceptance.criterion_5_giant_lln(),
           "median/survival = 0.9808 (band 1 +- 0.1), median/(2 eps) = 0.8153 "
           "(bracket [0.8, 1.05])")


def test_criterion_06_cluster_tail_vs_survival():
    _check(acceptance.criterion_6_cluster_tail(),
           "estimate 0.2386 vs zeta 0.2494 (relative gap 0.0432, limit 0.10); "
           "excess over upper bound -2.53 std errors (limit +3)")


def test_criterion_07_two_round_merge():
    _check(acceptance.criterion_7_sprinkling(),
           "merged in 20/20 replicas (need >= 95%), post-merge cover >= 0.99 "
           "z' in all merged: True")


def test_criterion_08_good_line_coverage():
    _check(acceptance.criterion_8_good_lines(),
           "all large clusters spread over >= 375 lines in 20/20 replicas "
           "(need >= 95%)")


def test_criterion_09_subcritical_mean_cluster_size():
    _check(acceptance.criterion_9_subcritical_chi(),
           "chi estimate 4.822 vs 5.0, relative gap 0.0357 (limit 0.15)")


def test_criterion_10_critical_window_scale():
    _check(acceptance.criterion_10_critical_window(),
           "cmax/V^(2/3) in [0.1, 10.0] for 100% of 30 replicas (need >= "
           "90%); median multiple 0.84")


def test_criterion_11_concentration():
    _check(acceptance.criterion_11_concentration(),
           "sd(Z_k)/(eps V) = 0.0791 (limit 0.15)")
