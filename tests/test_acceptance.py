"""End-to-end acceptance gate.

One test per criterion; each records a PASS/FAIL line for the summary
section printed at the end of the run.  Wall times are printed for the
heavier instances but never asserted.  The last criterion rebuilds a
seven-element instance whose reduction is heavy, so it only runs when
VRLAT_STRETCH is set.
"""

import itertools
import os
import time
from math import comb

from vrlat import formulas
from vrlat.cli import run_three_layer_check
from vrlat.complexes import (
    build_flag,
    is_cone,
    maximal_simplices_bk,
    maximal_simplices_closed_form,
    sc_hypothesis_check,
)
from vrlat.homology import betti_z2, euler_characteristic, homology_integer
from vrlat.setfam import Subset, gen_prefix, gen_uniform, gen_union


def test_criterion_01_pair_layer_wedge(record_criterion):
    t0 = time.perf_counter()
    bad = []
    for m in range(4, 8):
        k = build_flag(gen_uniform(m, 2), 2, 4)
        got = betti_z2(k, 3).values
        want = (0, 0, comb(m - 1, 3), 0)
        if got != want:
            bad.append((m, got, want))
    print(f"pair layers m=4..7 in {time.perf_counter() - t0:.2f}s")
    assert record_criterion(
        1, "pair layers are wedges of 2-spheres, counted", not bad
    ), bad


def test_criterion_02_uniform_layer_formula(record_criterion):
    # the two seven-element anchors, frozen; 55 is confirmed independently
    # by the Euler characteristic and by the complement bijection onto the
    # four-element layer
    assert formulas.uniform_betti2(6, 3) == 19
    assert formulas.uniform_betti2(7, 3) == 55
    t0 = time.perf_counter()
    bad = []
    for m in range(4, 8):
        for n in range(2, m - 1):
            k = build_flag(gen_uniform(m, n), 2, 4)
            got = betti_z2(k, 3).values
            want = (0, 0, formulas.uniform_betti2(m, n), 0)
            if got != want:
                bad.append((m, n, got, want))
    print(f"uniform layers m<=7 in {time.perf_counter() - t0:.2f}s")
    assert record_criterion(
        2, "uniform layer 2-sphere count matches formula", not bad
    ), bad


def test_criterion_03_adjacent_pair_formula(record_criterion):
    assert formulas.adjacent_pair_betti2(5, 2) == 19
    bad = []
    for m in range(4, 7):
        for n in range(2, m - 1):
            fam = gen_union([gen_uniform(m, n), gen_uniform(m, n + 1)])
            got = betti_z2(build_flag(fam, 2, 3), 2).values
            want = (0, 0, formulas.adjacent_pair_betti2(m, n))
            if got != want:
                bad.append((m, n, got, want))
    assert record_criterion(
        3, "adjacent layer pair 2-sphere count matches formula", not bad
    ), bad


def test_criterion_04_skip_pair_formula(record_criterion):
    assert formulas.skip_pair_betti3(5, 1) == 5
    assert formulas.skip_pair_betti3(5, 2) == 5
    bad = []
    for m in range(3, 7):
        for n in range(1, m - 1):
            fam = gen_union([gen_uniform(m, n), gen_uniform(m, n + 2)])
            got = betti_z2(build_flag(fam, 2, 4), 3).values
            want = (0, 0, 0, formulas.skip_pair_betti3(m, n))
            if got != want:
                bad.append((m, n, got, want))
    assert record_criterion(
        4, "skip pair 3-sphere count matches formula, 2-spheres absent", not bad
    ), bad


def test_criterion_05_prefix_families(record_criterion):
    assert formulas.prefix_betti3(5, Subset.parse("{1,2,3}", 5)) == 1
    bad = []
    for m in (4, 5):
        for a in gen_prefix(m, Subset.full(m)).vertices:
            k = build_flag(gen_prefix(m, a), 2, 4)
            got = betti_z2(k, 3).values
            if a.size >= 3:
                want = (0, 0, 0, formulas.prefix_betti3(m, a))
                if got != want:
                    bad.append((m, str(a), got, want))
            else:
                # short prefixes are cones on their minimum
                if is_cone(k) is None or any(got):
                    bad.append((m, str(a), got, "contractible"))
    assert record_criterion(
        5, "prefix family 3-sphere count; short prefixes contractible", not bad
    ), bad


def test_criterion_06_power_set_formula(record_criterion):
    assert [formulas.power_betti3(m) for m in (3, 4, 5)] == [1, 9, 49]
    bad = []
    for m in (3, 4, 5):
        t0 = time.perf_counter()
        k = build_flag(gen_prefix(m, Subset.full(m)), 2, 5)
        got = betti_z2(k, 4).values
        want = (0, 0, 0, formulas.power_betti3(m), 0)
        print(f"power set m={m} in {time.perf_counter() - t0:.2f}s")
        if got != want:
            bad.append((m, got, want))
    assert record_criterion(
        6, "power set 3-sphere count matches formula through dim 4", not bad
    ), bad


def test_criterion_07_formula_identities(record_criterion):
    t0 = time.perf_counter()
    sums_ok = all(
        sum(formulas.layer_increment(m, k) for k in range(3, m + 1))
        == formulas.power_betti3(m)
        for m in range(3, 13)
    )
    offsets_ok = True
    for bits in range(1 << 10):
        if bits.bit_count() < 3:
            continue
        a = Subset(bits, 10)
        if formulas.prefix_increment(a) != formulas.skip_increment(a) + comb(
            a.size - 1, 2
        ):
            offsets_ok = False
            break
    print(f"identity sweep in {time.perf_counter() - t0:.2f}s")
    assert record_criterion(
        7, "increment identities hold without building complexes", sums_ok and offsets_ok
    )


def test_criterion_08_facet_oracle(record_criterion):
    bad = []
    for m in range(4, 8):
        for n in range(2, m - 1):
            got = maximal_simplices_closed_form(m, n)
            if got != maximal_simplices_bk(gen_uniform(m, n), 2):
                bad.append((m, n, "listing"))
            if len(got) != comb(m, n - 1) + comb(m, n + 1):
                bad.append((m, n, "count"))
    assert record_criterion(
        8, "closed-form facets equal enumerated facets with counts", not bad
    ), bad


def test_criterion_09_cross_polytopes(record_criterion):
    assert formulas.cross_polytope_sphere_dim(4, 2) == 2
    assert formulas.cross_polytope_sphere_dim(6, 3) == 9
    small = betti_z2(build_flag(gen_uniform(4, 2), 2, 2), 2).values == (0, 0, 1)
    t0 = time.perf_counter()
    k = build_flag(gen_uniform(6, 3), 4, 10)
    got = betti_z2(k, 9).values
    print(
        f"halved-layer 9-sphere: {sum(k.f_vector)} simplices "
        f"in {time.perf_counter() - t0:.2f}s"
    )
    big = (
        k.complete
        and got == (0, 0, 0, 0, 0, 0, 0, 0, 0, 1)
        and euler_characteristic(k) == 0
    )
    assert record_criterion(9, "balanced layers are single spheres", small and big)


def test_criterion_10_three_layer_collapse(record_criterion):
    bad = []
    for m, n in ((5, 1), (6, 1), (6, 2)):
        entry = run_three_layer_check(m, n).entries[0]
        if entry.status != "ok" or entry.match is not True:
            bad.append((m, n, entry.status, entry.match))
    assert record_criterion(
        10, "middle layer insertion is invisible through dim 3", not bad
    ), bad


def test_criterion_11_star_cluster_hypothesis(record_criterion):
    ok = True
    for m, n in ((5, 2), (6, 3)):
        fam = gen_uniform(m, n)
        k = build_flag(fam, 2, 1)
        l_set = [i for i, s in enumerate(fam.vertices) if s.contains(1)]
        ok &= sc_hypothesis_check(k, l_set) is None

    fam = gen_union([gen_uniform(5, 2), gen_uniform(5, 3)])
    k = build_flag(fam, 2, 1)
    lower = [i for i, s in enumerate(fam.vertices) if s.size == 2]
    ok &= sc_hypothesis_check(k, lower) is None

    # the down-set of the square misses the diagonal edge
    fam = gen_prefix(2, Subset.full(2))
    k = build_flag(fam, 1, 2)
    ok &= sc_hypothesis_check(k, [0, 1, 2]) == (1, 2)
    assert record_criterion(
        11, "star-cluster hypothesis holds and the known violation is found", ok
    )


def test_criterion_12_stretch_nine_sphere_bundle(record_criterion, skip_criterion):
    """Exact integer homology of the scale-4 triple layer on seven elements.

    Runs in about 30 s and peaks around 250 MB, so it is opt-in: the build
    takes about 3 s, the mod-2 profile about 25 s and the exact integer
    ranks about 4 s.  The integer ranks come from one bottom-up coboundary
    reduction over dimensions 0..9 whose pivots are all +-1, which
    certifies the ranks and the absence of torsion without a Smith normal
    form.
    """
    label = "deep scale-4 instance: integer ranks 29 and 7, torsion-free"
    if not os.environ.get("VRLAT_STRETCH"):
        skip_criterion(12, label, "set VRLAT_STRETCH=1 to enable")
    t0 = time.perf_counter()
    k = build_flag(gen_uniform(7, 3), 4, 10)
    profile = betti_z2(k, 9).values
    print(f"mod-2 profile {profile} in {time.perf_counter() - t0:.1f}s")
    ok = profile == (0, 0, 0, 0, 0, 0, 29, 0, 0, 7)
    for dim, want_rank in ((9, 7), (6, 29)):
        t1 = time.perf_counter()
        rank, torsion = homology_integer(k, dim, max_cols=400000)
        print(
            f"integer homology dim {dim}: rank {rank}, torsion {torsion} "
            f"in {time.perf_counter() - t1:.1f}s"
        )
        ok = ok and rank == want_rank and torsion == ()
    assert record_criterion(12, label, ok)
