"""Family-spec mini-language, verification suites, and the vrlat commands.

The spec grammar is `spec := term ('+' term)*` with terms F(m,n),
prefix(m;{...}), power(m), upto(m,n); whitespace is insignificant and parse
errors carry byte offsets.  Verification suites enumerate in-regime
instances in a canonical order, compute Betti numbers, and compare them
against the closed-form oracles; entries that blow a budget are reported
as skipped rather than dropped.  Every instance is built on its own except
the prefix(m;A): those of one m are the vertex prefixes of power(m), so
one build of power(m) and one persistence pass over it give them all, and
their budgets and wall time are those of that one task.  VRLAT_THREADS
sizes the worker pool.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from io import StringIO

import click

from . import __version__, formulas
from .complexes import (
    BuildBudgetExceeded,
    build_flag,
    facet_dump,
    maximal_simplices_bk,
    maximal_simplices_closed_form,
    sc_hypothesis_check,
)
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
    *budgets,
) -> ReportEntry:
    """Error entry naming a task (the arguments of _compute_entry), with
    nothing computed."""
    return ReportEntry(
        spec=spec_text,
        scale=scale,
        max_dim=max_dim,
        status="error",
        coeff=coeff,
        oracle_name=oracle_name,
        oracle=oracle,
    )


def _task_errors(
    kind: str, head, scale, max_dim, coeff, oracle_name, oracle, *budgets
) -> list[ReportEntry]:
    """Error entries naming every instance of a suite task (see
    _suite_tasks), with nothing computed."""
    specs = oracle if kind == "prefix" else ((head, oracle),)
    return [
        _task_error(spec, scale, max_dim, coeff, oracle_name, spec_oracle)
        for spec, spec_oracle in specs
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
        through = max_dim if k.complete else max_dim - 1
        bv = betti_z2(k, through)
        torsion = None
        if coeff == "int":
            ranks, torsion_lists = [], []
            for d in range(bv.complete_through + 1):
                rank, tors = homology_integer(k, d)
                ranks.append(rank)
                torsion_lists.append(tuple(tors))
            values = tuple(ranks)
            torsion = tuple(torsion_lists)
        else:
            values = bv.values
        chi = euler_characteristic(k) if k.complete else None
    except Exception as e:  # per-entry errors are recorded, not raised
        return _failed(base, e, _ms_since(started))
    entry = replace(
        base,
        status="ok",
        f_vector=k.f_vector,
        betti=values,
        complete_through=bv.complete_through,
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
    oracle_name: str,
    specs: tuple[tuple[str, tuple[int, ...]], ...],
    budget_ms: int | None,
    max_simplices: int | None,
) -> list[ReportEntry]:
    """The entries of every prefix(m;A), A in the vertex order of power(m),
    from one build of power(m) and one persistence pass over it.

    prefix(m;A) is the first index(A)+1 vertices of power(m), so its complex
    is the full subcomplex of power(m)'s on them (see prefix_betti_z2); the
    pass is mod 2, so coeff is "z2".  Budgets apply to the task as a whole:
    max_simplices bounds the one build, budget_ms is compared with the
    task's wall time, and every entry reports that time.
    """
    bases = _task_errors("prefix", m, scale, max_dim, coeff, oracle_name, specs)
    started = time.perf_counter()
    try:
        k = build_flag(
            gen_prefix(m, Subset.full(m)), scale, max_dim, max_simplices=max_simplices
        )
        prefixes = _prefix_z2(k, max_dim)
    except Exception as e:  # the failure is every entry's
        elapsed = _ms_since(started)
        return [_failed(base, e, elapsed) for base in bases]
    elapsed = _ms_since(started)
    entries = []
    for base, (f, chi, bv) in zip(bases, prefixes):
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


def _suite_tasks(suite: str, m_max: int) -> list[tuple]:
    """The suite's tasks in canonical order, before budgets.

    ("entry", spec, scale, max_dim, "z2", oracle name, oracle) is one
    instance; ("prefix", m, scale, max_dim, "z2", oracle name,
    ((spec, oracle), ...)) is every prefix(m;A), A in the vertex order of
    power(m).
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
    if suite in ("prefix", "all"):
        for m in range(3, m_max + 1):
            specs = []
            for a in gen_prefix(m, Subset.full(m)).vertices:
                elems = ",".join(str(e) for e in a.elements)
                value = formulas.prefix_betti3(m, a) if a.size >= 3 else 0
                specs.append((f"prefix({m};{{{elems}}})", (0, 0, 0, value)))
            tasks.append(("prefix", m, 2, 4, "z2", "prefix_betti3", tuple(specs)))
    if suite in ("power", "all"):
        for m in range(3, m_max + 1):
            oracle = (0, 0, 0, formulas.power_betti3(m))
            tasks.append(("entry", f"power({m})", 2, 4, "z2", "power_betti3", oracle))
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

    Tasks (one instance each, or every prefix of one m) run in a worker
    pool sized by VRLAT_THREADS; entries are aggregated in canonical
    enumeration order regardless of completion.  If a worker process dies,
    every instance of the tasks it left unfinished becomes an error entry
    naming the crash.
    """
    if suite not in ("uniform", "adjacent", "skip", "prefix", "power", "all"):
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    return Report(tuple(entry for entries in results for entry in entries))


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


def _subset_args(text: str) -> tuple[Subset]:
    sc = _Scanner(text.strip())
    elems = _parse_set(sc, MAX_GROUND)
    if sc.pos != len(sc.text):
        raise SpecParseError("trailing input", sc.pos, ("end of set",))
    if not elems:
        raise click.UsageError("this formula needs a nonempty subset")
    return (Subset.of(elems, max(elems)),)


def _m_args(text: str) -> tuple[int]:
    return (int(text),)


def _mn_args(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError(f"expected 'm,n', got {text!r}")
    return int(parts[0]), int(parts[1])


def _prefix_args(text: str) -> tuple[int, Subset]:
    head, _, tail = text.partition(";")
    if not tail:
        raise click.UsageError(f"expected 'm;{{elements}}', got {text!r}")
    m = int(head)
    return m, Subset.of(_parse_set(_Scanner(tail.strip()), m), m)


# name -> (argument parser, value function, term function or None)
_FORMULAS = {
    name: (parse, getattr(formulas, name), getattr(formulas, f"{name}_terms", None))
    for name, parse in [
        ("prefix_increment", _subset_args),
        ("skip_increment", _subset_args),
        ("layer_increment", _mn_args),
        ("power_betti3", _m_args),
        ("uniform_betti2", _mn_args),
        ("adjacent_pair_betti2", _mn_args),
        ("prefix_betti3", _prefix_args),
        ("upto_betti3", _mn_args),
        ("skip_layer_sum", _mn_args),
        ("skip_pair_betti3", _mn_args),
        ("cross_polytope_sphere_dim", _mn_args),
    ]
}


@click.group(name="vrlat")
@click.version_option(version=__version__, prog_name="vrlat")
def main():
    """Rips complexes of set families under the symmetric-difference metric."""


@main.command()
@click.option("--family", "family_text", required=True, help="Family spec.")
@click.option("--scale", type=click.IntRange(min=0), required=True)
@click.option("--max-dim", type=click.IntRange(min=0), required=True)
@click.option("--coeff", type=click.Choice(["z2", "int"]), default="z2")
@click.option(
    "--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json"
)
@click.option("--max-simplices", type=click.IntRange(min=1), default=None)
def homology(family_text, scale, max_dim, coeff, fmt, max_simplices):
    """Betti numbers of the family's complex at the given scale."""
    try:
        spec = parse_family_spec(family_text)
    except SpecParseError as e:
        raise click.UsageError(str(e))
    entry = _compute_entry(
        spec.render(), scale, max_dim, coeff, None, None, None, max_simplices
    )
    if entry.status == "error":
        raise click.ClickException(entry.detail or "computation failed")
    if entry.status == "skipped":
        raise click.ClickException(entry.detail or "budget exceeded")
    if fmt == "json":
        full = _entry_dict(entry, False)
        keep = (
            "family", "scale", "coeff", "betti", "complete_through", "chi", "torsion"
        )
        doc = {k: full[k] for k in keep if k in full}
        click.echo(json.dumps(doc, separators=(",", ":")))
    else:
        click.echo(emit_report(Report((entry,)), fmt).decode(), nl=False)


@main.command()
@click.option("--family", "family_text", required=True, help="Family spec.")
@click.option("--scale", type=click.IntRange(min=0), required=True)
@click.option(
    "--closed-form",
    is_flag=True,
    help="Use the two-type facet formula (single uniform layer only).",
)
def facets(family_text, scale, closed_form):
    """List the maximal simplices of the family's complex."""
    try:
        spec = parse_family_spec(family_text)
    except SpecParseError as e:
        raise click.UsageError(str(e))
    fam = spec.family()
    if closed_form:
        if len(spec.terms) != 1 or not isinstance(spec.terms[0], UniformTerm):
            raise click.UsageError(
                "--closed-form applies to a single F(m,n) term at scale 2"
            )
        if scale != 2:
            raise click.UsageError("--closed-form is a scale-2 statement")
        term = spec.terms[0]
        try:
            simplices = maximal_simplices_closed_form(term.m, term.n)
        except ValueError as e:
            raise click.UsageError(str(e))
    else:
        simplices = maximal_simplices_bk(fam, scale)
    click.echo(facet_dump(fam, scale, simplices, spec.render()), nl=False)


@main.command()
@click.option(
    "--suite",
    type=click.Choice(["uniform", "adjacent", "skip", "prefix", "power", "all"]),
    required=True,
)
@click.option("--m-max", type=click.IntRange(min=1, max=MAX_GROUND), required=True)
@click.option("--budget-ms", type=click.IntRange(min=1), default=None)
@click.option("--max-simplices", type=click.IntRange(min=1), default=None)
@click.option("--max-dim", type=click.IntRange(min=1), default=None)
@click.option(
    "--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="text"
)
@click.option("--no-timing", is_flag=True, help="Omit wall times (stable output).")
def verify(suite, m_max, budget_ms, max_simplices, max_dim, fmt, no_timing):
    """Run a formula-verification suite; exit 1 on any mismatch or error."""
    report = run_verify(
        suite, m_max, budget_ms=budget_ms, max_simplices=max_simplices, max_dim=max_dim
    )
    click.echo(emit_report(report, fmt, include_timing=not no_timing).decode(), nl=False)
    if not report_clean(report):
        raise SystemExit(1)


@main.command()
@click.argument("name")
@click.option("--args", "argtext", required=True, help="Formula arguments.")
@click.option("--show-terms", is_flag=True)
def formula(name, argtext, show_terms):
    """Evaluate a closed-form count; optionally list its term decomposition."""
    if name not in _FORMULAS:
        raise click.UsageError(
            f"unknown formula {name!r}; available: {', '.join(sorted(_FORMULAS))}"
        )
    parse, value_fn, terms_fn = _FORMULAS[name]
    try:
        args = parse(argtext)
        value = value_fn(*args)
        terms = terms_fn(*args) if show_terms and terms_fn else []
    except ValueError as e:  # SpecParseError included
        raise click.UsageError(str(e))
    click.echo(str(value))
    for template, label_args, term_value in terms:
        click.echo(f"  {template.format(*label_args)} = {term_value}")


@main.command("check-sc")
@click.option("--family", "family_text", required=True)
@click.option("--scale", type=click.IntRange(min=0), required=True)
@click.option("--subfamily", "subfamily_text", required=True)
def check_sc(family_text, scale, subfamily_text):
    """Check the star-cluster hypothesis for a vertex subfamily.

    Exit 0 when it holds, 1 with a witnessing pair when violated.
    """
    try:
        spec = parse_family_spec(family_text)
        sub = parse_family_spec(subfamily_text)
    except SpecParseError as e:
        raise click.UsageError(str(e))
    if sub.m != spec.m:
        raise click.UsageError("subfamily ground size differs from family")
    fam = spec.family()
    try:
        indices = [fam.index(v) for v in sub.family().vertices]
    except KeyError as e:
        raise click.UsageError(f"subfamily vertex {e.args[0]} not in family")
    # adjacency is all the check needs, so build the graph only
    k = build_flag(fam, scale, 1)
    witness = sc_hypothesis_check(k, indices)
    if witness is None:
        click.echo("holds")
        return
    v, w = witness
    click.echo(f"violated({fam.vertices[v]},{fam.vertices[w]})")
    raise SystemExit(1)


if __name__ == "__main__":
    main()
