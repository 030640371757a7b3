"""Family-spec mini-language, verification suites, and their reports.

The library side of the vrlat command, whose click group lives in
__main__.py, so that `import vrlat` loads neither click nor the process
pool.  The spec grammar is `spec := term ('+' term)*` with terms F(m,n),
prefix(m;{...}), power(m), upto(m,n); whitespace is insignificant and parse
errors carry byte offsets.  Verification suites enumerate in-regime
instances in a canonical order, compute Betti numbers, and compare them
against the closed-form oracles; entries that blow a budget are reported
as skipped rather than dropped.  Every instance is built on its own except
the prefix(m;A) and power(m): those of one m are the vertex prefixes of
power(m), power(m) the last of them, so one build of power(m) and one
persistence pass over it give them all, and their budgets and wall time
are those of that one task.  The prefix oracles are the running totals of
one list of prefix_betti3 increments per m.  VRLAT_THREADS sizes the
worker pool.
"""

import os
import time
from dataclasses import dataclass, field, replace
from io import StringIO
from itertools import accumulate

from . import formulas
from .complexes import BuildBudgetExceeded, build_flag
from .homology import _prefix_z2, betti_z2, euler_characteristic, homology_integer
from .setfam import MAX_GROUND, SetFamily, Subset, gen_prefix, gen_uniform, gen_union


class SpecParseError(ValueError):
    """Family-spec syntax or validity error, located by byte offset."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)


@dataclass(frozen=True)
class UniformTerm:
    m: int
    n: int

    def render(self) -> str:
        return f"F({self.m},{self.n})"

    def family(self) -> SetFamily:
        return gen_uniform(self.m, self.n)


@dataclass(frozen=True)
class PrefixTerm:
    m: int
    elements: tuple[int, ...]

    def render(self) -> str:
        inner = ",".join(str(e) for e in self.elements)
        return f"prefix({self.m};{{{inner}}})"

    def family(self) -> SetFamily:
        return gen_prefix(self.m, Subset.of(self.elements, self.m))


@dataclass(frozen=True)
class PowerTerm:
    m: int

    def render(self) -> str:
        return f"power({self.m})"

    def family(self) -> SetFamily:
        return gen_prefix(self.m, Subset.full(self.m))


@dataclass(frozen=True)
class UpToTerm:
    m: int
    n: int

    def render(self) -> str:
        return f"upto({self.m},{self.n})"

    def family(self) -> SetFamily:
        return gen_union([gen_uniform(self.m, k) for k in range(self.n + 1)])


@dataclass(frozen=True)
class FamilySpec:
    terms: tuple

    @property
    def m(self) -> int:
        return self.terms[0].m

    def render(self) -> str:
        return "+".join(t.render() for t in self.terms)

    def family(self) -> SetFamily:
        return gen_union([t.family() for t in self.terms])


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise SpecParseError("unexpected input", self.pos, (repr(ch),))
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SpecParseError("unexpected input", start, ("integer",))
        return int(self.text[start:self.pos])

    def word(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos], start


def _check_m(m: int, offset: int) -> None:
    if not 1 <= m <= MAX_GROUND:
        raise SpecParseError(f"ground size {m} out of range 1..{MAX_GROUND}", offset)


def _parse_set(sc: _Scanner, m: int) -> tuple[int, ...]:
    sc.expect("{")
    elems = []
    if sc.peek() == "}":
        sc.pos += 1
        return ()
    while True:
        at = sc.pos
        e = sc.integer()
        if not 1 <= e <= m:
            raise SpecParseError(f"element {e} outside ground set [{m}]", at)
        elems.append(e)
        nxt = sc.peek()
        if nxt == ",":
            sc.pos += 1
            continue
        if nxt == "}":
            sc.pos += 1
            return tuple(sorted(set(elems)))
        raise SpecParseError("unexpected input", sc.pos, ("','", "'}'"))


def _parse_term(sc: _Scanner):
    name, start = sc.word()
    if name == "F":
        sc.expect("(")
        m_at = sc.pos
        m = sc.integer()
        _check_m(m, m_at)
        sc.expect(",")
        n_at = sc.pos
        n = sc.integer()
        if n > m:
            raise SpecParseError(f"layer {n} exceeds ground size {m}", n_at)
        sc.expect(")")
        return UniformTerm(m, n)
    if name == "prefix":
        sc.expect("(")
        m_at = sc.pos
        m = sc.integer()
        _check_m(m, m_at)
        sc.expect(";")
        elems = _parse_set(sc, m)
        sc.expect(")")
        return PrefixTerm(m, elems)
    if name == "power":
        sc.expect("(")
        m_at = sc.pos
        m = sc.integer()
        _check_m(m, m_at)
        sc.expect(")")
        return PowerTerm(m)
    if name == "upto":
        sc.expect("(")
        m_at = sc.pos
        m = sc.integer()
        _check_m(m, m_at)
        sc.expect(",")
        n_at = sc.pos
        n = sc.integer()
        if n > m:
            raise SpecParseError(f"layer bound {n} exceeds ground size {m}", n_at)
        sc.expect(")")
        return UpToTerm(m, n)
    raise SpecParseError(
        "unknown term", start, ("'F'", "'prefix'", "'power'", "'upto'")
    )


def parse_family_spec(text: str) -> FamilySpec:
    sc = _Scanner(text)
    terms = [_parse_term(sc)]
    while sc.peek() == "+":
        sc.pos += 1
        at = sc.pos
        term = _parse_term(sc)
        if term.m != terms[0].m:
            raise SpecParseError(
                f"ground-size mismatch: {term.m} vs {terms[0].m}", at
            )
        terms.append(term)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise SpecParseError("trailing input", sc.pos, ("'+'", "end of spec"))
    return FamilySpec(tuple(terms))


@dataclass(frozen=True)
class ReportEntry:
    spec: str
    scale: int
    max_dim: int
    status: str  # ok | skipped | error
    coeff: str = "z2"
    f_vector: tuple[int, ...] | None = None
    betti: tuple[int, ...] | None = None
    complete_through: int | None = None
    chi: int | None = None
    torsion: tuple[tuple[int, ...], ...] | None = None
    oracle_name: str | None = None
    oracle: tuple[int, ...] | None = None
    match: bool | None = None
    detail: str | None = None
    wall_time_ms: int | None = None


@dataclass(frozen=True)
class Report:
    entries: tuple[ReportEntry, ...] = field(default_factory=tuple)


def _task_error(
    spec_text: str,
    scale: int,
    max_dim: int,
    coeff: str,
    oracle_name: str | None,
    oracle: tuple[int, ...] | None,
) -> ReportEntry:
    """Error entry naming a task (the arguments of _compute_entry before
    its budgets), with nothing computed."""
    return ReportEntry(
        spec=spec_text,
        scale=scale,
        max_dim=max_dim,
        status="error",
        coeff=coeff,
        oracle_name=oracle_name,
        oracle=oracle,
    )


def _task_errors(kind, head, scale, max_dim, coeff, *rest) -> list[ReportEntry]:
    """Error entries naming every instance of a suite task (see
    _suite_tasks), with nothing computed."""
    if kind == "entry":
        oracle_name, oracle = rest[:2]
        return [_task_error(head, scale, max_dim, coeff, oracle_name, oracle)]
    power_oracle, specs = rest[:2]
    named = [(spec, "prefix_betti3", oracle) for spec, oracle in specs]
    if power_oracle is not None:
        named.append((f"power({head})", "power_betti3", power_oracle))
    return [
        _task_error(spec, scale, max_dim, coeff, name, oracle)
        for spec, name, oracle in named
    ]


def _ms_since(started: float) -> int:
    return int((time.perf_counter() - started) * 1000)


def _failed(base: ReportEntry, e: Exception, elapsed: int) -> ReportEntry:
    """A refused build is skipped; any other exception is an error."""
    if isinstance(e, BuildBudgetExceeded):
        detail = f"simplex budget {e.budget} exceeded at dimension {e.dim_reached}"
        return replace(base, status="skipped", detail=detail, wall_time_ms=elapsed)
    return replace(base, status="error", detail=str(e), wall_time_ms=elapsed)


def _judged(entry: ReportEntry, budget_ms: int | None) -> ReportEntry:
    """Compare a computed entry with its oracle, padded with zeros to the
    entry's length, then skip it if its wall time broke the budget."""
    values, oracle = entry.betti, entry.oracle
    if oracle is not None:
        if len(values) < len(oracle):
            return replace(
                entry, status="error", detail="complex too shallow for its oracle"
            )
        expected = oracle + (0,) * (len(values) - len(oracle))
        entry = replace(entry, match=values == expected)
    if budget_ms is not None and entry.wall_time_ms > budget_ms:
        entry = replace(
            entry,
            status="skipped",
            detail=f"wall time {entry.wall_time_ms} ms exceeded budget {budget_ms} ms",
            match=None,
        )
    return entry


def _complete_through(k) -> int:
    """The last dimension whose Betti number the built complex decides;
    a complex that decides none is refused."""
    through = k.max_dim if k.complete else k.max_dim - 1
    if through < 0:
        raise ValueError(
            "max_dim 0 stores no edges, so no Betti number is complete; "
            "--max-dim must be >= 1"
        )
    return through


def _compute_entry(
    spec_text: str,
    scale: int,
    max_dim: int,
    coeff: str,
    oracle_name: str | None,
    oracle: tuple[int, ...] | None,
    budget_ms: int | None,
    max_simplices: int | None,
) -> ReportEntry:
    base = _task_error(spec_text, scale, max_dim, coeff, oracle_name, oracle)
    started = time.perf_counter()
    try:
        fam = parse_family_spec(spec_text).family()
        k = build_flag(fam, scale, max_dim, max_simplices=max_simplices)
        through = _complete_through(k)
        if coeff == "int":
            groups = [homology_integer(k, d) for d in range(through + 1)]
            values = tuple(rank for rank, _ in groups)
            torsion = tuple(tuple(tors) for _, tors in groups)
        else:
            values, torsion = betti_z2(k, through).values, None
        chi = euler_characteristic(k) if k.complete else None
    except Exception as e:  # per-entry errors are recorded, not raised
        return _failed(base, e, _ms_since(started))
    entry = replace(
        base,
        status="ok",
        f_vector=k.f_vector,
        betti=values,
        complete_through=through,
        chi=chi,
        torsion=torsion,
        wall_time_ms=_ms_since(started),
    )
    return _judged(entry, budget_ms)


def _prefix_entries(
    m: int,
    scale: int,
    max_dim: int,
    coeff: str,
    power_oracle: tuple[int, ...] | None,
    specs: tuple[tuple[str, tuple[int, ...]], ...],
    budget_ms: int | None,
    max_simplices: int | None,
) -> list[ReportEntry]:
    """The entries of every prefix(m;A) in specs, A in the vertex order of
    power(m), then that of power(m) if power_oracle is given, from one
    build of power(m) and one persistence pass over it.

    prefix(m;A) is the first index(A)+1 vertices of power(m), so its complex
    is the full subcomplex of power(m)'s on them (see prefix_betti_z2), and
    power(m) is the last prefix.  The pass is mod 2, so coeff is "z2".
    The task answers or fails as a whole: max_simplices bounds the one
    build, a max_dim that leaves power(m)'s Betti numbers undecided is
    refused as _compute_entry refuses it, budget_ms is compared with the
    task's wall time, and every entry reports that time.
    """
    bases = _task_errors("prefix", m, scale, max_dim, coeff, power_oracle, specs)
    started = time.perf_counter()
    try:
        k = build_flag(
            gen_prefix(m, Subset.full(m)), scale, max_dim, max_simplices=max_simplices
        )
        _complete_through(k)
        prefixes = _prefix_z2(k, max_dim)
    except Exception as e:  # the failure is every entry's
        elapsed = _ms_since(started)
        return [_failed(base, e, elapsed) for base in bases]
    elapsed = _ms_since(started)
    results = prefixes[: len(specs)]
    if power_oracle is not None:
        results.append(prefixes[-1])
    entries = []
    for base, (f, chi, bv) in zip(bases, results):
        entry = replace(
            base,
            status="ok",
            f_vector=f,
            betti=bv.values,
            complete_through=bv.complete_through,
            chi=chi,
            wall_time_ms=elapsed,
        )
        entries.append(_judged(entry, budget_ms))
    return entries


def _run_task(task: tuple) -> list[ReportEntry]:
    kind, *args = task
    return _prefix_entries(*args) if kind == "prefix" else [_compute_entry(*args)]


# suite -> the oracle of its entries, in the canonical order of a report
_SUITES = {
    "uniform": "uniform_betti2",
    "adjacent": "adjacent_pair_betti2",
    "skip": "skip_pair_betti3",
    "prefix": "prefix_betti3",
    "power": "power_betti3",
}


def _suite_tasks(suite: str, m_max: int) -> list[tuple]:
    """The suite's tasks, before budgets.

    ("entry", spec, scale, max_dim, "z2", oracle name, oracle) is one
    instance.  ("prefix", m, scale, max_dim, "z2", power oracle or None,
    ((spec, oracle), ...)) is one pass over power(m) for the prefix and
    power suites: the specs are every prefix(m;A), A in the vertex order of
    power(m), or none, and power(m) is the last prefix.  Its entries come
    out prefix suite first, so run_verify sorts them into suite order.
    """
    tasks = []
    if suite in ("uniform", "all"):
        for m in range(4, m_max + 1):
            for n in range(2, m - 1):
                oracle = (0, 0, formulas.uniform_betti2(m, n))
                tasks.append(
                    ("entry", f"F({m},{n})", 2, 3, "z2", "uniform_betti2", oracle)
                )
    if suite in ("adjacent", "all"):
        for m in range(4, m_max + 1):
            for n in range(2, m - 1):
                oracle = (0, 0, formulas.adjacent_pair_betti2(m, n))
                tasks.append(
                    ("entry", f"F({m},{n})+F({m},{n+1})", 2, 3, "z2",
                     "adjacent_pair_betti2", oracle)
                )
    if suite in ("skip", "all"):
        for m in range(3, m_max + 1):
            for n in range(1, m - 1):
                oracle = (0, 0, 0, formulas.skip_pair_betti3(m, n))
                tasks.append(
                    ("entry", f"F({m},{n})+F({m},{n+2})", 2, 4, "z2",
                     "skip_pair_betti3", oracle)
                )
    if suite in ("prefix", "power", "all"):
        for m in range(3, m_max + 1):
            specs = []
            if suite != "power":
                full = Subset.full(m)
                # prefix_betti3(m, A) sums the increments of the size >= 3
                # sets up to A in order, so its values are running totals of
                # the last list
                totals = accumulate(
                    v for _, _, v in formulas.prefix_betti3_terms(m, full)
                )
                for a in gen_prefix(m, full).vertices:
                    elems = ",".join(str(e) for e in a.elements)
                    value = next(totals) if a.size >= 3 else 0
                    specs.append((f"prefix({m};{{{elems}}})", (0, 0, 0, value)))
            power = (0, 0, 0, formulas.power_betti3(m)) if suite != "prefix" else None
            tasks.append(("prefix", m, 2, 4, "z2", power, tuple(specs)))
    return tasks


def worker_count() -> int:
    raw = os.environ.get("VRLAT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_verify(
    suite: str,
    m_max: int,
    budget_ms: int | None = None,
    max_simplices: int | None = None,
    max_dim: int | None = None,
) -> Report:
    """Compare computed Betti numbers against formula oracles, suite-wide.

    Tasks (one instance each, or one pass over power(m) for the prefix and
    power suites, power(m) being its last prefix) run in a worker pool
    sized by VRLAT_THREADS.  Entries come back in canonical order whatever
    the completion order: suite by suite (uniform, adjacent, skip, prefix,
    power), each in enumeration order.  If a worker process dies, every
    instance of the tasks it left unfinished becomes an error entry naming
    the crash.
    """
    if suite not in (*_SUITES, "all"):
        raise ValueError(f"unknown suite {suite!r}")
    if not 1 <= m_max <= MAX_GROUND:
        raise ValueError(f"m_max out of range 1..{MAX_GROUND}")
    tasks = [
        (kind, head, scale, dim if max_dim is None else max_dim, *rest,
         budget_ms, max_simplices)
        for kind, head, scale, dim, *rest in _suite_tasks(suite, m_max)
    ]
    workers = worker_count()
    if workers == 1 or len(tasks) <= 1:
        results = [_run_task(t) for t in tasks]
    else:
        # imported here: the pool costs a serial run its import time
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # the pool forks all its workers at once: no more than the tasks
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(_run_task, t) for t in tasks]
            results = []
            for task, future in zip(tasks, futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool as e:
                    # a worker died (say, killed for memory); every task
                    # not finished by then is lost, the rest is kept
                    results.append([
                        replace(entry, detail=f"worker process crashed: {e}")
                        for entry in _task_errors(*task)
                    ])
    rank = {name: i for i, name in enumerate(_SUITES.values())}
    entries = [entry for task_entries in results for entry in task_entries]
    return Report(tuple(sorted(entries, key=lambda e: rank[e.oracle_name])))


def run_three_layer_check(
    m: int,
    n: int,
    budget_ms: int | None = None,
    max_simplices: int | None = None,
) -> Report:
    """Check that inserting the middle layer between n and n+2 is invisible
    to homology through dimension 3."""
    if not (1 <= n < m - 3 and m >= 4):
        raise ValueError(f"(m,n)=({m},{n}) outside the three-layer regime")
    triple = f"F({m},{n})+F({m},{n+1})+F({m},{n+2})"
    double = f"F({m},{n})+F({m},{n+2})"
    ref = _compute_entry(double, 2, 4, "z2", None, None, budget_ms, max_simplices)
    entry = _compute_entry(triple, 2, 4, "z2", None, None, budget_ms, max_simplices)
    if ref.status == "ok" and entry.status == "ok":
        entry = replace(
            entry,
            oracle_name="two_layer_betti",
            oracle=ref.betti[:4],
            match=entry.betti[:4] == ref.betti[:4],
        )
    elif entry.status == "ok":
        entry = replace(entry, status=ref.status, detail=ref.detail)
    return Report((entry,))


def _entry_dict(e: ReportEntry, include_timing: bool) -> dict:
    out = {
        "family": e.spec,
        "scale": e.scale,
        "coeff": e.coeff,
        "betti": list(e.betti) if e.betti is not None else None,
        "complete_through": e.complete_through,
        "chi": e.chi,
        "max_dim": e.max_dim,
        "f_vector": list(e.f_vector) if e.f_vector is not None else None,
        "status": e.status,
        "oracle": (
            {"name": e.oracle_name, "betti": list(e.oracle)}
            if e.oracle is not None
            else None
        ),
        "match": e.match,
        "detail": e.detail,
        "wall_time_ms": e.wall_time_ms if include_timing else None,
    }
    if e.torsion is not None:
        out["torsion"] = [list(t) for t in e.torsion]
    return out


def _betti_cell(v: tuple[int, ...] | None) -> str:
    return "|".join(str(x) for x in v) if v is not None else ""


def emit_report(r: Report, format: str, include_timing: bool = True) -> bytes:
    """Deterministic serialization of a report (timing droppable)."""
    if format == "json":
        import json

        doc = {"entries": [_entry_dict(e, include_timing) for e in r.entries]}
        return json.dumps(doc, separators=(",", ":")).encode()
    if format == "csv":
        import csv

        buf = StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["spec", "scale", "max_dim", "betti", "oracle", "match", "wall_time_ms"])
        for e in r.entries:
            w.writerow(
                [
                    e.spec,
                    e.scale,
                    e.max_dim,
                    _betti_cell(e.betti),
                    _betti_cell(e.oracle),
                    "" if e.match is None else str(e.match).lower(),
                    e.wall_time_ms if include_timing and e.wall_time_ms is not None else "",
                ]
            )
        return buf.getvalue().encode()
    if format == "text":
        lines = []
        for e in r.entries:
            bits = [f"{e.spec} scale={e.scale} max_dim={e.max_dim} {e.status}"]
            if e.betti is not None:
                bits.append(f"betti={_betti_cell(e.betti)}")
            if e.oracle is not None:
                bits.append(f"oracle[{e.oracle_name}]={_betti_cell(e.oracle)}")
            if e.match is not None:
                bits.append("match" if e.match else "MISMATCH")
            if e.detail:
                bits.append(f"({e.detail})")
            if include_timing and e.wall_time_ms is not None:
                bits.append(f"{e.wall_time_ms}ms")
            lines.append(" ".join(bits))
        ok = sum(1 for e in r.entries if e.status == "ok")
        skipped = sum(1 for e in r.entries if e.status == "skipped")
        errors = sum(1 for e in r.entries if e.status == "error")
        mismatched = sum(1 for e in r.entries if e.match is False)
        lines.append(
            f"total={len(r.entries)} ok={ok} skipped={skipped} "
            f"errors={errors} mismatched={mismatched}"
        )
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {format!r}")


def report_clean(r: Report) -> bool:
    """True when every non-skipped entry succeeded and matched its oracle."""
    for e in r.entries:
        if e.status == "error":
            return False
        if e.status == "ok" and e.match is False:
            return False
    return True


if __name__ == "__main__":
    # the command moved to __main__.py; fail rather than verify nothing
    raise SystemExit("vrlat.cli holds no command; run `python -m vrlat`")
