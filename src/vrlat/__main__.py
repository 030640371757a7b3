"""The vrlat command: a click group over the library in cli.py.

Run it as `vrlat` once installed, or as `python -m vrlat` from a checkout.
The library never imports this module, so only the command loads click.
"""

import json

import click

from . import __version__, formulas
from .cli import (
    _SUITES,
    FamilySpec,
    Report,
    ReportEntry,
    SpecParseError,
    UniformTerm,
    _compute_entry,
    _entry_dict,
    _parse_set,
    _Scanner,
    emit_report,
    parse_family_spec,
    report_clean,
    run_verify,
)
from .complexes import (
    build_flag,
    facet_dump,
    maximal_simplices_bk,
    maximal_simplices_closed_form,
    sc_hypothesis_check,
)
from .setfam import MAX_GROUND, Subset


def _spec(text: str) -> FamilySpec:
    """The parsed family spec; a malformed one is a usage error."""
    try:
        return parse_family_spec(text)
    except SpecParseError as e:
        raise click.UsageError(str(e))


def _subset_args(sc: _Scanner) -> tuple[Subset]:
    elems = _parse_set(sc, MAX_GROUND)
    if not elems:
        raise click.UsageError("this formula needs a nonempty subset")
    return (Subset.of(elems, max(elems)),)


def _m_args(sc: _Scanner) -> tuple[int]:
    return (sc.integer(),)


def _mn_args(sc: _Scanner) -> tuple[int, int]:
    m = sc.integer()
    sc.expect(",")
    return m, sc.integer()


def _prefix_args(sc: _Scanner) -> tuple[int, Subset]:
    m = sc.integer()
    sc.expect(";")
    return m, Subset.of(_parse_set(sc, m), m)


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
    spec = _spec(family_text)
    entry = _compute_entry(
        ReportEntry(spec.render(), scale, max_dim, coeff=coeff), None, max_simplices
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
    spec = _spec(family_text)
    fam = spec.family()
    if closed_form:
        if len(spec.terms) != 1 or not isinstance(spec.terms[0], UniformTerm):
            raise click.UsageError(
                "--closed-form applies to a single F(m,n) term at scale 2"
            )
        if scale != 2:
            raise click.UsageError("--closed-form is a scale-2 statement")
        term = spec.terms[0]
        # at n = m-1 the core facets are faces of the one hull facet
        if not 2 <= term.n <= term.m - 2:
            raise click.UsageError("--closed-form needs 2 <= n <= m-2 in F(m,n)")
        simplices = maximal_simplices_closed_form(term.m, term.n)
    else:
        simplices = maximal_simplices_bk(fam, scale)
    click.echo(facet_dump(fam, scale, simplices, spec.render()), nl=False)


@main.command()
@click.option(
    "--suite",
    type=click.Choice([*_SUITES, "all"]),
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
        sc = _Scanner(argtext)  # the spec grammar's integers and sets
        args = parse(sc)
        sc.end("end of arguments")
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
    spec, sub = _spec(family_text), _spec(subfamily_text)
    if sub.m != spec.m:
        raise click.UsageError("subfamily ground size differs from family")
    fam = spec.family()
    try:
        indices = [fam.index(v) for v in sub.family().vertices]
    except KeyError as e:
        # SetFamily.index's message reads "{vertex} not in family"
        raise click.UsageError(f"subfamily vertex {e.args[0]}")
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
