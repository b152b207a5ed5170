"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run fixed seed ensembles (seeds 0..19) so the suite is
deterministic; exact criteria use rational arithmetic end to end.
"""

from fractions import Fraction

import numpy as np
import pytest

from sheetcharge.criteria import moment_scaling_fit
from sheetcharge.dyadic import Rectangle
from sheetcharge.haar import haar_matrix
from sheetcharge.increments import coefficient_table, cube_increments
from sheetcharge.sampler import sample_sheet_ensemble, sample_standard_sheet, sheet_covariance
from sheetcharge.experiment import counterexample_figure

from helpers import (
    criterion_a_statistic,
    criterion_b_terms,
    dichotomy_statistics,
    holder_ratio_by_level,
    random_dyadic_figure,
)
from oracles import (
    PolynomialField,
    exact_coefficient_table,
    figure_increment,
    flux,
    haar_gram_exact,
    haar_indices_up_to,
    haar_primitive_grid,
    increment_covariance,
    schauder_partial_apply,
)

SEEDS = tuple(range(20))


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_c01_matrix_identities():
    ok = True
    for d in range(1, 7):
        m = haar_matrix(d).astype(np.int64)
        ok &= bool(np.array_equal(m, m.T))
        ok &= bool(np.array_equal(m @ m, (1 << d) * np.eye(1 << d, dtype=np.int64)))
    report(1, "matrix-identities", ok, "d=1..6 symmetric, squares to 2^d I, integer arithmetic")


def test_c02_haar_orthonormality():
    worst = None
    ok = True
    for d in (1, 2):
        gram = haar_gram_exact(d, 3)
        m = gram.shape[0]
        for i in range(m):
            for j in range(m):
                want = 1 if i == j else 0
                if gram[i, j] != want:
                    ok = False
                    worst = (d, i, j, gram[i, j])
    detail = "Gram of all generations <= 3 exactly the identity for d=1,2"
    if worst:
        detail = f"first mismatch {worst}"
    report(2, "haar-orthonormality", ok, detail)


def _corner_expansion(H, ra, rb):
    total = 0.0
    for ca, sa in ra.corners():
        for cb, sb in rb.corners():
            total += sa * sb * sheet_covariance(H, [float(x) for x in ca], [float(x) for x in cb])
    return total


def test_c03_increment_covariance_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = [(1, (0.5,)), (1, (0.8,)), (2, (0.5, 0.5)), (2, (0.8, 0.9))]
    for d, H in cases:
        for _ in range(20):
            denom = 16
            rects = []
            for _ in range(2):
                lo = rng.integers(0, denom, size=d)
                hi = lo + rng.integers(1, denom // 2, size=d)
                hi = np.minimum(hi, denom)
                lo = np.minimum(lo, hi - 1)
                rects.append(
                    Rectangle(
                        tuple(Fraction(int(a), denom) for a in lo),
                        tuple(Fraction(int(b), denom) for b in hi),
                    )
                )
            exact = increment_covariance(H, rects[0], rects[1])
            brute = _corner_expansion(H, rects[0], rects[1])
            err = abs(exact - brute) / max(abs(brute), 1e-12)
            worst = max(worst, err)
    report(3, "increment-covariance-oracle", worst <= 1e-12,
           f"20 random pairs per case, worst relative error {worst:.2e} <= 1e-12")


def test_c04_sampler_covariance():
    H, gen, reps = (0.8, 0.9), 3, 10_000
    pairs = [
        ((1, 1), (1, 1)), ((8, 8), (8, 8)), ((4, 4), (4, 4)), ((2, 7), (5, 3)),
        ((1, 8), (8, 1)), ((3, 3), (6, 6)), ((8, 8), (1, 1)), ((5, 5), (5, 6)),
        ((7, 2), (7, 4)), ((6, 1), (2, 2)),
    ]
    sums = np.zeros(len(pairs))
    for f in sample_sheet_ensemble(H, gen, 0, reps):
        for i, (s, t) in enumerate(pairs):
            sums[i] += f.values[s] * f.values[t]
    emp = sums / reps
    within = 0
    zs = []
    for i, (s, t) in enumerate(pairs):
        sp = tuple(x / (1 << gen) for x in s)
        tp = tuple(x / (1 << gen) for x in t)
        exact = sheet_covariance(H, sp, tp)
        var = sheet_covariance(H, sp, sp) * sheet_covariance(H, tp, tp) + exact**2
        z = (emp[i] - exact) / np.sqrt(var / reps)
        zs.append(abs(z))
        within += abs(z) <= 3
    report(4, "sampler-covariance", within >= 9,
           f"{within}/10 fixed grid pairs within 3 SE over {reps} replicates, max |z|={max(zs):.2f}")


def test_c05_brownian_dichotomy():
    t_vals, a_vals = [], []
    for seed in SEEDS:
        f = sample_standard_sheet(2, 8, seed)
        tab = coefficient_table(f, 7)
        t6, _ = dichotomy_statistics(tab, 6)
        t_vals.append(t6)
        a_vals.append(criterion_a_statistic(tab, 6))
    mean_t = float(np.mean(t_vals))
    target = float(np.sqrt(2 / np.pi))
    ok_mean = abs(mean_t - target) <= 0.02
    hits = sum(a >= 0.5 for a in a_vals)
    report(5, "brownian-dichotomy", ok_mean and hits >= 18,
           f"mean T_6 = {mean_t:.4f} vs {target:.4f} (|diff| <= 0.02), "
           f"criterion-A >= 0.5 in {hits}/20 seeds")


@pytest.fixture(scope="module")
def fractional_ensemble():
    """Shared d=2, H=(0.9, 0.9), N=10 single-path-per-seed ensemble (crit 6+7)."""
    data = []
    for seed in SEEDS:
        f = next(iter(sample_sheet_ensemble((0.9, 0.9), 10, seed, 1)))
        tab = coefficient_table(f, 9)
        data.append(
            {
                "b_terms": criterion_b_terms(tab),
                "holder": holder_ratio_by_level(f, 0.7, 9),
            }
        )
    return data


def test_c06_fractional_decay(fractional_ensemble):
    decreasing = 0
    slopes = []
    for entry in fractional_ensemble:
        b = entry["b_terms"]
        decreasing += all(b[i + 1] < b[i] for i in range(3, 9))
        ns = np.arange(3, 10)
        slopes.append(float(np.polyfit(ns, np.log2(b[3:]), 1)[0]))
    mean_slope = float(np.mean(slopes))
    ok = decreasing >= 18 and abs(mean_slope - (-0.8)) <= 0.3
    report(6, "fractional-decay", ok,
           f"strictly decreasing (n>=3) in {decreasing}/20 seeds, "
           f"fitted log2 ratio {mean_slope:.3f} within +-0.3 of -0.8")


def test_c07_holder_ratio(fractional_ensemble):
    hits = 0
    ratios = []
    for entry in fractional_ensemble:
        levels = entry["holder"]
        ratios.append(levels[8] / levels[4])
        hits += levels[8] <= 2.0 * levels[4]
    report(7, "holder-ratio", hits >= 18,
           f"gamma=0.7 level-8 ratio <= 2x level-4 ratio in {hits}/20 seeds "
           f"(max quotient {max(ratios):.3f})")


def test_c08_moment_scaling():
    gens = range(2, 8)
    pooled = {n: [] for n in gens}
    for f in sample_sheet_ensemble((0.7, 0.9), 8, 0, 200):
        for n in gens:
            pooled[n].append(cube_increments(f, n))
    samples = {n: np.concatenate(chunks) for n, chunks in pooled.items()}
    fit = moment_scaling_fit(samples, 2.0, 2)
    ok = abs(fit.slope - 1.6) <= 0.05
    report(8, "moment-scaling", ok,
           f"fitted slope {fit.slope:.4f} within +-0.05 of 2*Hbar = 1.6 "
           f"(gens 2..7, 200 replicates)")


def test_c09_counterexample():
    coverages = []
    conditional_ok = True
    for seed in SEEDS:
        f = sample_standard_sheet(2, 10, seed)  # the H=(1/2,1/2) grid law
        fig, rep = counterexample_figure(f, 3, 9, 0.5)
        coverages.append(rep.coverage)
        if rep.coverage >= 0.5:
            delta = figure_increment(f.values, fig)
            conditional_ok &= delta >= 0.5
            conditional_ok &= rep.perimeter <= 4.0
            conditional_ok &= rep.volume <= 2.0**-3
    median = float(np.median(coverages))
    qualifying = sum(c >= 0.5 for c in coverages)
    ok = median >= 0.5 and conditional_ok
    report(9, "counterexample", ok,
           f"median coverage {median:.4f} >= 1/2; increment/perimeter/volume bounds "
           f"hold in all {qualifying} qualifying seeds")


def test_c10_gauss_green():
    field = PolynomialField(
        2,
        (
            ((Fraction(1), (1, 0)), (Fraction(1, 100), (1, 2))),
            ((Fraction(1, 2), (0, 1)), (Fraction(1, 100), (2, 1))),
        ),
    )
    ok = True
    finals = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        fig = random_dyadic_figure(rng, 2, 3, 4 + seed)
        exact = float(field.divergence_integral_figure(fig))
        errs = [abs(flux(field, fig, level) - exact) for level in range(2, 7)]
        ok &= all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        ok &= errs[-1] <= 1e-8
        finals.append(errs[-1])
    report(10, "gauss-green", ok,
           f"5 random figures: errors decay monotonically over levels 2..6, "
           f"max final error {max(finals):.2e} <= 1e-8")


def test_c11_reconstruction():
    rng = np.random.default_rng(77)
    indices = haar_indices_up_to(2, 3)
    picks = rng.choice(len(indices), size=8, replace=False)
    grid = np.zeros((17, 17), dtype=object)
    grid[...] = Fraction(0)
    for pick in picks:
        coeff = Fraction(int(rng.integers(-8, 9)) or 1, 4)
        grid = grid + coeff * haar_primitive_grid(indices[int(pick)], 4, exact=True)
    tab = exact_coefficient_table(grid, 3)
    ok = True
    for seed in range(20):
        fig = random_dyadic_figure(np.random.default_rng(1000 + seed), 2, 4, 10)
        ok &= schauder_partial_apply(tab, 3, fig) == figure_increment(grid, fig)
    report(11, "reconstruction", ok,
           "truncated expansion equals the figure increment exactly on 20 random figures")
