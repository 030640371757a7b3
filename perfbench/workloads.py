"""The benchmark's workloads: inputs from a seed, one timed pass, exact checks.

Every workload is a class with the same three steps.  `__init__(vr, seed,
quick)` makes the inputs (this is set-up, timed as setup_s together with the
import).  `work(checkpoint)` is one pass of the timed work; it calls
`checkpoint()` before every item, outside the item's timing, so the worker
can sample the host speed (see hostspeed.py).  It returns (start, duration)
of every item in `perf_counter_ns` nanoseconds, the number of simplices
built and reduced, and the raw results.  `check(results)` compares the results with exact `==`
and returns (attempted, failed, notes); it runs outside the timed pass and,
in the traced worker, with recording paused.

`vr` maps layer names to vrlat's modules.  Work calls the package only
through module attributes (`vr["complexes"].build_flag`, ...), so the
traced worker's wrappers see every call.
"""

import random
from time import perf_counter_ns


class VerifyAll:
    """`run_verify("all", 7)` plus its text report: the paper's route of
    many small complexes checked against the closed forms.

    An item is one report entry, timed around `cli._compute_entry`.
    """

    def __init__(self, vr, seed: int, quick: bool):
        self.cli = vr["cli"]
        self.m_max = 4 if quick else 7
        self.expected_entries = 31 if quick else 288
        self._item_ns: list[tuple[int, int]] = []
        self._checkpoint = None
        compute = self.cli._compute_entry

        def timed_entry(*args):
            self._checkpoint()
            t0 = perf_counter_ns()
            try:
                return compute(*args)
            finally:
                self._item_ns.append((t0, perf_counter_ns() - t0))

        self.cli._compute_entry = timed_entry

    def work(self, checkpoint):
        self._item_ns = []
        self._checkpoint = checkpoint
        report = self.cli.run_verify("all", self.m_max)
        text = self.cli.emit_report(report, "text", include_timing=False)
        simplices = sum(sum(e.f_vector) for e in report.entries if e.f_vector)
        return self._item_ns, simplices, (report, text)

    def check(self, results):
        report, text = results
        entries = report.entries
        bad = [e for e in entries if e.status != "ok" or e.match is not True]
        notes = [f"{e.spec}: status={e.status} match={e.match} {e.detail or ''}"
                 for e in bad[:5]]
        n = self.expected_entries
        failed = len(bad) + max(0, n - len(entries))
        if len(entries) != n:
            notes.append(f"{len(entries)} entries, expected {n}")
        summary = f"total={n} ok={n} skipped=0 errors=0 mismatched=0"
        if text.decode().splitlines()[-1] != summary:
            notes.append("report summary line differs from " + summary)
            failed = max(failed, 1)
        return max(n, len(entries)), failed, notes


# The scale-4 complex of 3-subsets of [7] is the clique complex of the
# "share an element" graph, so the disjoint pairs of a subfamily decide its
# size.  Among 17-set subfamilies their count ranges over about 8..20 and
# the complex size falls from ~17k to ~3k simplices as it grows.  Drawing
# only subfamilies with the most common count (16) keeps the work per seed
# nearly constant while the families themselves stay irregular.
DISJOINT_PAIRS = 16
# 18 draws keep the batch's seed-to-seed spread near 6%.
RANDOM_FAMILIES = 18


def _disjoint_pairs(subsets) -> int:
    return sum(1 for i, a in enumerate(subsets) for b in subsets[:i]
               if not a.bits & b.bits)


class IntBatch:
    """Integer homology of every dimension for a batch of complete complexes.

    The batch is the fixed anchor F(6,3) at scale 4 (a 9-sphere) plus
    RANDOM_FAMILIES seeded random half-density (17-set) subfamilies of
    F(7,3) at scale 4.  The seed selects only the random families.  Each
    family is built, then `homology_integer` runs for every nonempty
    dimension.  An item is one of these calls; a check covers one family.
    """

    def __init__(self, vr, seed: int, quick: bool):
        self.vr = vr
        setfam = vr["setfam"]
        self.anchor_mn = (4, 2) if quick else (6, 3)
        m, n = self.anchor_mn
        families = [(setfam.gen_uniform(m, n), m - 2)]
        base = setfam.gen_uniform(7, 3).vertices
        rng = random.Random(seed)
        while len(families) < 1 + (2 if quick else RANDOM_FAMILIES):
            chosen = rng.sample(base, len(base) // 2)
            if _disjoint_pairs(chosen) == DISJOINT_PAIRS:
                families.append((setfam.SetFamily.from_subsets(7, chosen), 4))
        self.families = families

    def work(self, checkpoint):
        build_flag = self.vr["complexes"].build_flag
        homology_integer = self.vr["homology"].homology_integer
        items, results, simplices = [], [], 0

        def timed(fn, *args):
            checkpoint()
            t0 = perf_counter_ns()
            out = fn(*args)
            items.append((t0, perf_counter_ns() - t0))
            return out

        for fam, scale in self.families:
            try:
                k = timed(build_flag, fam, scale, len(fam) - 1)
                top = max(d for d, f in enumerate(k.f_vector) if f)
                groups = [timed(homology_integer, k, d) for d in range(top + 1)]
            except Exception as e:  # a failed family is reported, not raised
                results.append(e)
            else:
                results.append((k, groups))
                simplices += sum(k.f_vector)
        return items, simplices, results

    def check(self, results):
        homology = self.vr["homology"]
        notes = []
        for i, res in enumerate(results):
            why = self._check_one(homology, i, res)
            if why:
                notes.append(f"family {i}: {why}")
        return len(self.families), len(notes), notes

    def _check_one(self, homology, i, res):
        if isinstance(res, Exception):
            return f"raised {res!r}"
        k, groups = res
        if not k.complete:
            return "complex not complete"
        ranks = [rank for rank, _ in groups]
        chi = sum((-1) ** d * r for d, r in enumerate(ranks))
        if chi != homology.euler_characteristic(k) - 1:
            return f"reduced Euler characteristic {chi} from ranks disagrees"
        # universal coefficients: dim H_d(Z/2) = rank H_d plus the even
        # invariant factors of H_d and of H_{d-1}
        z2 = homology.betti_z2(k, len(groups) - 1).values
        even = [sum(1 for t in tors if t % 2 == 0) for _, tors in groups]
        for d, b in enumerate(z2):
            if b != ranks[d] + even[d] + (even[d - 1] if d else 0):
                return f"mod-2 b{d}={b} disagrees with integer groups {groups}"
        if i == 0:
            m, n = self.anchor_mn
            sphere = self.vr["formulas"].cross_polytope_sphere_dim(m, n)
            want = [(1 if d == sphere else 0, ()) for d in range(sphere + 1)]
            if groups != want:
                return f"anchor F({m},{n}) gave {groups}, expected a {sphere}-sphere"
        return None


WORKLOADS = {
    "verify-all": VerifyAll,
    "int-batch": IntBatch,
}
