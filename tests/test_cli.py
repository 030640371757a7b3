"""Spec grammar, report plumbing, and the command-line surface."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import vrlat
import vrlat.cli as cli
from vrlat.__main__ import main
from vrlat.cli import (
    FamilySpec,
    PowerTerm,
    PrefixTerm,
    Report,
    ReportEntry,
    SpecParseError,
    UniformTerm,
    UpToTerm,
    emit_report,
    parse_family_spec,
    report_clean,
    run_three_layer_check,
    run_verify,
    worker_count,
)
from vrlat import formulas
from vrlat.setfam import Subset, gen_prefix, gen_uniform


class TestParsing:
    def test_uniform_term(self):
        spec = parse_family_spec("F(6,3)")
        assert spec == FamilySpec((UniformTerm(6, 3),))
        assert spec.m == 6
        assert spec.render() == "F(6,3)"

    def test_union_of_layers(self):
        spec = parse_family_spec("F(5,2)+F(5,4)")
        assert spec.terms == (UniformTerm(5, 2), UniformTerm(5, 4))

    def test_whitespace_is_insignificant(self):
        spec = parse_family_spec("  F( 5 , 2 )  +  F( 5 , 3 ) ")
        assert spec.render() == "F(5,2)+F(5,3)"

    def test_prefix_term(self):
        spec = parse_family_spec("prefix(4;{1,2,3})")
        assert spec.terms == (PrefixTerm(4, (1, 2, 3)),)

    def test_prefix_set_is_deduplicated_and_sorted(self):
        spec = parse_family_spec("prefix(4;{3,1,3})")
        assert spec.terms == (PrefixTerm(4, (1, 3)),)

    def test_power_and_upto_terms(self):
        assert parse_family_spec("power(6)").terms == (PowerTerm(6),)
        assert parse_family_spec("upto(5,2)").terms == (UpToTerm(5, 2),)

    def test_empty_prefix_set(self):
        spec = parse_family_spec("prefix(3;{})")
        assert len(spec.family()) == 1

    def test_family_construction(self):
        assert parse_family_spec("F(4,2)").family() == gen_uniform(4, 2)
        assert len(parse_family_spec("power(3)").family()) == 8
        assert len(parse_family_spec("upto(4,2)").family()) == 11

    def test_union_deduplicates_overlapping_terms(self):
        fam = parse_family_spec("F(4,2)+F(4,2)").family()
        assert len(fam) == 6


class TestParseErrors:
    def test_unclosed_parenthesis(self):
        with pytest.raises(SpecParseError) as err:
            parse_family_spec("F(5,2")
        assert err.value.offset == 5
        assert "')'" in err.value.expected

    def test_ground_size_mismatch(self):
        with pytest.raises(SpecParseError) as err:
            parse_family_spec("F(5,2)+F(6,2)")
        assert "ground-size mismatch" in str(err.value)
        assert err.value.offset == 7

    def test_ground_size_out_of_range(self):
        with pytest.raises(SpecParseError) as err:
            parse_family_spec("F(64,2)")
        assert "out of range" in str(err.value)

    def test_layer_above_ground_size(self):
        with pytest.raises(SpecParseError) as err:
            parse_family_spec("F(5,7)")
        assert "exceeds ground size" in str(err.value)

    def test_unknown_term_lists_alternatives(self):
        with pytest.raises(SpecParseError) as err:
            parse_family_spec("G(4,2)")
        assert err.value.offset == 0
        assert "'prefix'" in err.value.expected

    def test_trailing_input(self):
        with pytest.raises(SpecParseError) as err:
            parse_family_spec("F(5,2)x")
        assert err.value.offset == 6

    @pytest.mark.parametrize("text, offset", [("F(\u0665,2)", 2), ("power(\u00b2)", 6)])
    def test_integers_are_ascii_digits(self, text, offset):
        # other Unicode digits are refused where the integer starts, rather
        # than read (Arabic-Indic five) or crashing int() (superscript two)
        with pytest.raises(SpecParseError) as err:
            parse_family_spec(text)
        assert err.value.offset == offset
        assert err.value.expected == ("integer",)

    def test_element_outside_ground_set(self):
        with pytest.raises(SpecParseError) as err:
            parse_family_spec("prefix(4;{5})")
        assert "outside ground set" in str(err.value)
        assert err.value.offset == 10

    def test_empty_spec(self):
        with pytest.raises(SpecParseError):
            parse_family_spec("")

    def test_set_elements_are_comma_separated(self):
        with pytest.raises(SpecParseError) as err:
            parse_family_spec("prefix(4;{1;2})")
        assert str(err.value) == "unexpected input at offset 11 (expected ',', '}')"


def term_strategy():
    uniform = st.builds(
        lambda m, n: UniformTerm(m, min(n, m)),
        st.integers(2, 9),
        st.integers(0, 9),
    )
    prefix = st.builds(
        lambda m, elems: PrefixTerm(m, tuple(sorted(set(e for e in elems if e <= m)))),
        st.integers(2, 9),
        st.lists(st.integers(1, 9), max_size=4),
    )
    power = st.builds(PowerTerm, st.integers(2, 9))
    up_to = st.builds(
        lambda m, n: UpToTerm(m, min(n, m)), st.integers(2, 9), st.integers(0, 9)
    )
    return st.one_of(uniform, prefix, power, up_to)


class TestRenderRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 9), st.lists(term_strategy(), min_size=1, max_size=3))
    def test_parse_inverts_render(self, m, terms):
        # pin every term to one ground size so the spec is well formed
        pinned = []
        for t in terms:
            if isinstance(t, UniformTerm):
                pinned.append(UniformTerm(m, min(t.n, m)))
            elif isinstance(t, PrefixTerm):
                pinned.append(PrefixTerm(m, tuple(e for e in t.elements if e <= m)))
            elif isinstance(t, UpToTerm):
                pinned.append(UpToTerm(m, min(t.n, m)))
            else:
                pinned.append(PowerTerm(m))
        spec = FamilySpec(tuple(pinned))
        assert parse_family_spec(spec.render()) == spec


class TestWorkerCount:
    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv("VRLAT_THREADS", "8")
        assert worker_count() == 8

    def test_garbage_and_nonpositive_fall_back_to_one(self, monkeypatch):
        monkeypatch.setenv("VRLAT_THREADS", "x")
        assert worker_count() == 1
        monkeypatch.setenv("VRLAT_THREADS", "-3")
        assert worker_count() == 1

    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv("VRLAT_THREADS", raising=False)
        assert worker_count() == 1


def sample_entry(**overrides):
    fields = dict(
        spec="F(5,2)",
        scale=2,
        max_dim=3,
        status="ok",
        f_vector=(10, 30, 30, 10),
        betti=(0, 0, 4, 0),
        complete_through=3,
        chi=5,
        oracle_name="uniform_betti2",
        oracle=(0, 0, 4),
        match=True,
        wall_time_ms=7,
    )
    fields.update(overrides)
    return ReportEntry(**fields)


class TestEmitReport:
    def test_empty_json(self):
        assert emit_report(Report(()), "json") == b'{"entries":[]}'

    def test_csv_header(self):
        assert emit_report(Report(()), "csv") == (
            b"spec,scale,max_dim,betti,oracle,match,wall_time_ms\n"
        )

    def test_csv_row(self):
        # the spec cell holds a comma, so the writer must quote it
        got = emit_report(Report((sample_entry(),)), "csv").decode().splitlines()
        assert got[1] == '"F(5,2)",2,3,0|0|4|0,0|0|4,true,7'

    def test_json_fields(self):
        doc = json.loads(emit_report(Report((sample_entry(),)), "json"))
        entry = doc["entries"][0]
        assert entry["family"] == "F(5,2)"
        assert entry["betti"] == [0, 0, 4, 0]
        assert entry["oracle"] == {"name": "uniform_betti2", "betti": [0, 0, 4]}
        assert entry["match"] is True
        assert "torsion" not in entry

    def test_torsion_key_only_for_integer_entries(self):
        entry = sample_entry(coeff="int", torsion=((), (), (2,), ()))
        doc = json.loads(emit_report(Report((entry,)), "json"))
        assert doc["entries"][0]["torsion"] == [[], [], [2], []]

    def test_timing_can_be_dropped(self):
        r = Report((sample_entry(),))
        doc = json.loads(emit_report(r, "json", include_timing=False))
        assert doc["entries"][0]["wall_time_ms"] is None
        row = emit_report(r, "csv", include_timing=False).decode().splitlines()[1]
        assert row.endswith(",true,")

    def test_text_summary_line(self):
        r = Report((sample_entry(), sample_entry(status="skipped", match=None)))
        text = emit_report(r, "text").decode()
        assert text.splitlines()[-1] == "total=2 ok=1 skipped=1 errors=0 mismatched=0"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(Report(()), "xml")


class TestReportClean:
    def test_clean_cases(self):
        assert report_clean(Report(()))
        assert report_clean(Report((sample_entry(),)))
        assert report_clean(Report((sample_entry(status="skipped", match=None),)))

    def test_dirty_cases(self):
        assert not report_clean(Report((sample_entry(match=False),)))
        assert not report_clean(
            Report((sample_entry(status="error", match=None, betti=None),))
        )


def _assert_crashed_like(entries, seq):
    """entries is seq with some entries turned into worker-crash errors."""
    assert [e.spec for e in entries] == [e.spec for e in seq]
    for got, want in zip(entries, seq):
        if got.status == "error":
            assert got == replace(
                want, status="error", f_vector=None, betti=None,
                complete_through=None, chi=None, match=None,
                detail=got.detail, wall_time_ms=None,
            )
            assert "worker process crashed" in got.detail
        else:
            assert replace(got, wall_time_ms=None) == replace(want, wall_time_ms=None)


class TestRunVerify:
    def test_uniform_suite(self):
        report = run_verify("uniform", 5)
        assert [e.spec for e in report.entries] == ["F(4,2)", "F(5,2)", "F(5,3)"]
        assert all(e.status == "ok" and e.match for e in report.entries)
        assert report_clean(report)

    def test_power_suite(self):
        report = run_verify("power", 4)
        assert [e.spec for e in report.entries] == ["power(3)", "power(4)"]
        assert all(e.match for e in report.entries)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_verify("everything", 5)

    def test_all_suite_output_is_pinned(self, monkeypatch):
        # the byte-exact report of every suite through m = 7; a change that
        # moves it changes what the paper's checks print
        monkeypatch.delenv("VRLAT_THREADS", raising=False)
        out = emit_report(run_verify("all", 7), "json", include_timing=False)
        assert hashlib.sha256(out).hexdigest() == (
            "0783469b067638094e40a346701a411140cd66d9418f61ef5cc1b6d60d400cae"
        )

    def test_all_suite_output_through_eight_is_pinned(self, monkeypatch):
        # the same report through m = 8, the bytes of
        # `vrlat verify --suite all --m-max 8 --format json --no-timing`;
        # it covers power(8)'s prefix pass, whose top coboundary's rank the
        # clique tree's counts certify
        monkeypatch.delenv("VRLAT_THREADS", raising=False)
        out = emit_report(run_verify("all", 8), "json", include_timing=False)
        assert hashlib.sha256(out).hexdigest() == (
            "3d891a9845428ebd8164459411038cbf05058ea6a8ebee1a9131fc9a9911d6e8"
        )
        with pytest.raises(ValueError):
            run_verify("uniform", 0)

    def test_all_suite_output_through_nine_is_pinned(self, monkeypatch):
        # the same report through m = 9, with power(9)'s prefix pass
        monkeypatch.delenv("VRLAT_THREADS", raising=False)
        out = emit_report(run_verify("all", 9), "json", include_timing=False)
        assert hashlib.sha256(out).hexdigest() == (
            "1abe9363627469598a0fc50620c26657b5c4eb10cd993fef7adc661dd13fab39"
        )

    def test_simplex_budget_skips_and_stays_clean(self):
        report = run_verify("uniform", 5, max_simplices=8)
        assert all(e.status == "skipped" for e in report.entries)
        assert all("budget" in e.detail for e in report.entries)
        assert report_clean(report)

    def test_time_budget_skips(self, monkeypatch):
        ticks = iter(range(0, 1000, 10))
        monkeypatch.setattr(cli.time, "perf_counter", lambda: float(next(ticks)))
        report = run_verify("uniform", 4, budget_ms=500)
        entry = report.entries[0]
        assert entry.status == "skipped"
        assert "exceeded budget" in entry.detail
        assert entry.match is None

    @pytest.mark.parametrize("suite, count", [("skip", 3), ("prefix", 8 + 16)])
    def test_complex_too_shallow_for_its_oracle_is_an_error(self, suite, count):
        # the skip-pair and prefix oracles name dimension 3, which a
        # complex through dimension 2 leaves undecided
        report = run_verify(suite, 4, max_dim=2)
        assert len(report.entries) == count
        for e in report.entries:
            assert (e.status, e.match) == ("error", None)
            assert e.detail == "complex too shallow for its oracle"
            assert e.betti is not None and len(e.betti) < len(e.oracle) == 4
        assert not report_clean(report)

    def test_parallel_run_matches_sequential(self, monkeypatch):
        # "all" sorts the entries of its power(m) passes into suite order
        for suite in ("uniform", "all"):
            monkeypatch.setenv("VRLAT_THREADS", "1")
            seq = emit_report(run_verify(suite, 5), "json", include_timing=False)
            monkeypatch.setenv("VRLAT_THREADS", "2")
            par = emit_report(run_verify(suite, 5), "json", include_timing=False)
            assert seq == par

    def test_crashed_worker_becomes_error_entries(self, monkeypatch):
        monkeypatch.setenv("VRLAT_THREADS", "1")
        seq = run_verify("uniform", 6).entries
        compute = cli._compute_entry

        def crash_on_f52(*args):
            if args[0].spec == "F(5,2)":
                os._exit(1)  # as if the worker were killed for memory
            return compute(*args)

        # the pool forks, so its workers inherit the patched function
        monkeypatch.setattr(cli, "_compute_entry", crash_on_f52)
        monkeypatch.setenv("VRLAT_THREADS", "2")
        report = run_verify("uniform", 6)
        crashed = report.entries[1]
        assert crashed.spec == "F(5,2)" and crashed.status == "error"
        _assert_crashed_like(report.entries, seq)

    def test_each_instance_is_one_positional_compute_entry_call(self, monkeypatch):
        # the bench times an item around cli._compute_entry, rebound to a
        # wrapper that takes positional arguments only; the power(m) passes
        # must stay out of the items
        monkeypatch.delenv("VRLAT_THREADS", raising=False)
        compute = cli._compute_entry
        specs = []

        def counted(*args):
            specs.append(args[0].spec)
            return compute(*args)

        monkeypatch.setattr(cli, "_compute_entry", counted)
        report = run_verify("all", 5)
        assert len(specs) == 3 + 3 + 6  # uniform, adjacent, skip
        assert not [s for s in specs if s.startswith(("prefix(", "power("))]
        assert report_clean(report)
        assert all(e.status == "ok" for e in report.entries)

    @pytest.mark.parametrize(
        "threads, tasks", [("100000", "all"), ("2", "all"), ("3", "uniform")]
    )
    def test_pool_is_capped_at_the_task_count(self, monkeypatch, threads, tasks):
        # the pool forks all of its max_workers at once, so VRLAT_THREADS
        # past the task count must not ask for more; the stub pool runs
        # the tasks inline and starts no process
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setenv("VRLAT_THREADS", "1")
        seq = emit_report(run_verify(tasks, 5), "json", include_timing=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setenv("VRLAT_THREADS", threads)
        par = emit_report(run_verify(tasks, 5), "json", include_timing=False)
        assert par == seq
        assert sizes == [min(int(threads), len(cli._suite_tasks(tasks, 5)))]


def _prefix_task(m: int, max_dim: int = 4):
    """The prefix task of the prefix suite at m, with max_dim and no budgets."""
    task_m, bases = cli._suite_tasks("prefix", m)[-1]
    assert task_m == m
    assert {(b.scale, b.coeff, b.oracle_name) for b in bases} == {
        (2, "z2", "prefix_betti3")
    }
    return m, tuple(replace(b, max_dim=max_dim) for b in bases), None, None


class TestPrefixTask:
    @pytest.mark.parametrize(
        "m, max_dim",
        [(m, d) for m in (3, 4, 5) for d in range(1, 7)] + [(6, 4)],
    )
    def test_filtration_entries_match_per_instance_entries(self, m, max_dim):
        task = _prefix_task(m, max_dim)
        bases = task[1]
        got = cli._prefix_entries(*task)
        assert len(got) == len(bases) == 1 << m
        for entry, base in zip(got, bases):
            want = cli._compute_entry(base, None, None)
            assert replace(entry, wall_time_ms=None) == replace(want, wall_time_ms=None)

    def test_oracles_are_the_closed_form(self):
        tasks = cli._suite_tasks("prefix", 8)
        assert [t[0] for t in tasks] == list(range(3, 9))
        for m, bases in tasks:
            subsets = gen_prefix(m, Subset.full(m)).vertices
            assert len(bases) == len(subsets)
            for a, base in zip(subsets, bases):
                (term,) = parse_family_spec(base.spec).terms
                assert Subset.of(term.elements, m) == a
                value = formulas.prefix_betti3(m, a) if a.size >= 3 else 0
                assert base.oracle == (0, 0, 0, value)

    def test_power_entries_match_per_instance_entries(self):
        # the suite reads power(m) off the last prefix of its pass; built
        # and reduced on its own by betti_z2, it must give the same entry
        entries = {e.spec: e for e in run_verify("all", 6).entries}
        for m in range(3, 7):
            oracle = (0, 0, 0, formulas.power_betti3(m))
            base = ReportEntry(f"power({m})", 2, 4, oracle_name="power_betti3",
                               oracle=oracle)
            want = cli._compute_entry(base, None, None)
            assert want.status == "ok" and want.match
            got = entries[f"power({m})"]
            assert replace(got, wall_time_ms=None) == replace(want, wall_time_ms=None)

    @pytest.mark.parametrize("suite", ["prefix", "power", "all"])
    def test_each_power_set_is_built_once(self, monkeypatch, suite):
        monkeypatch.delenv("VRLAT_THREADS", raising=False)
        built = []
        build = cli.build_flag

        def counted(fam, *args, **kwargs):
            built.append(fam)
            return build(fam, *args, **kwargs)

        monkeypatch.setattr(cli, "build_flag", counted)
        report = run_verify(suite, 5)
        assert report_clean(report)
        for m in (3, 4, 5):
            assert built.count(gen_prefix(m, Subset.full(m))) == 1

    def test_max_dim_zero_is_refused_for_every_entry_of_a_pass(self):
        report = run_verify("all", 4, max_dim=0)
        passes = [e for e in report.entries if e.oracle_name in
                  ("prefix_betti3", "power_betti3")]
        assert len(passes) == 8 + 16 + 2
        assert {e.status for e in report.entries} == {"error"}
        assert {e.detail for e in report.entries} == {
            "max_dim 0 stores no edges, so no Betti number is complete; "
            "--max-dim must be >= 1"
        }
        assert all(e.betti is None and e.complete_through is None
                   for e in report.entries)

    def test_one_prefix_task_per_m(self):
        tasks = cli._suite_tasks("prefix", 6)
        assert [m for m, _ in tasks] == [3, 4, 5, 6]
        report = run_verify("prefix", 6)
        assert [e.spec for e in report.entries] == [
            base.spec for _, bases in tasks for base in bases
        ]
        assert report_clean(report)

    def test_simplex_budget_skips_every_prefix_of_a_refused_build(self):
        # power(4) through dim 4 has 392 simplices and power(5) 1744
        report = run_verify("prefix", 5, max_simplices=1000)
        by_m = {m: [e for e in report.entries if e.spec.startswith(f"prefix({m};")]
                for m in (3, 4, 5)}
        assert [len(v) for v in by_m.values()] == [8, 16, 32]
        assert all(e.status == "ok" and e.match for e in by_m[3] + by_m[4])
        assert all(e.status == "skipped" for e in by_m[5])
        assert {e.detail for e in by_m[5]} == {
            "simplex budget 1000 exceeded at dimension 3"
        }
        assert all(e.betti is None and e.match is None for e in by_m[5])
        assert report_clean(report)

    def test_refused_prefix_build_stamps_every_entry_alike(self, monkeypatch):
        # each base gets its own fields on the failure path, all the same:
        # the refusal, the task's wall time and nothing computed, and the
        # time budget does not judge them again
        ticks = iter(range(0, 1000, 3))
        monkeypatch.setattr(cli.time, "perf_counter", lambda: float(next(ticks)))
        m, bases, _, _ = _prefix_task(4)
        entries = cli._prefix_entries(m, bases, 1, 100)
        assert [e.spec for e in entries] == [b.spec for b in bases]
        assert {(e.status, e.detail, e.wall_time_ms, e.betti, e.match)
                for e in entries} == {
            ("skipped", "simplex budget 100 exceeded at dimension 2", 3000, None, None)
        }

    def test_time_budget_applies_to_the_task_wall_time(self, monkeypatch):
        ticks = iter(range(0, 1000, 10))
        monkeypatch.setattr(cli.time, "perf_counter", lambda: float(next(ticks)))
        report = run_verify("prefix", 4, budget_ms=500)
        assert len(report.entries) == 8 + 16
        for m in (3, 4):
            wall = {e.wall_time_ms for e in report.entries
                    if e.spec.startswith(f"prefix({m};")}
            assert len(wall) == 1 and wall.pop() > 500
        assert all(e.status == "skipped" for e in report.entries)
        assert all("exceeded budget" in e.detail for e in report.entries)
        assert all(e.match is None for e in report.entries)
        assert report_clean(report)

    def test_crashed_prefix_worker_becomes_error_entries(self, monkeypatch):
        # under "all" the pass of m = 4 also carries power(4), which the
        # report lists after every prefix entry
        suites = {"prefix": 16, "all": 16 + 1}
        monkeypatch.setenv("VRLAT_THREADS", "1")
        seq = {suite: run_verify(suite, 5).entries for suite in suites}
        prefix_entries = cli._prefix_entries

        def crash_at_m4(m, *rest):
            if m == 4:
                os._exit(1)  # as if the worker were killed for memory
            return prefix_entries(m, *rest)

        # the pool forks, so its workers inherit the patched function
        monkeypatch.setattr(cli, "_prefix_entries", crash_at_m4)
        monkeypatch.setenv("VRLAT_THREADS", "2")
        for suite, lost in suites.items():
            report = run_verify(suite, 5)
            crashed = [e for e in report.entries
                       if e.spec.startswith("prefix(4;") or e.spec == "power(4)"]
            assert len(crashed) == lost
            assert all(e.status == "error" for e in crashed)
            _assert_crashed_like(report.entries, seq[suite])


class TestThreeLayerCheck:
    def test_insertion_is_invisible(self):
        report = run_three_layer_check(5, 1)
        entry = report.entries[0]
        assert entry.spec == "F(5,1)+F(5,2)+F(5,3)"
        assert entry.oracle_name == "two_layer_betti"
        assert entry.match is True

    def test_regime_is_enforced(self):
        with pytest.raises(ValueError):
            run_three_layer_check(5, 2)
        with pytest.raises(ValueError):
            run_three_layer_check(4, 1)

    def test_failed_reference_fails_the_computed_entry(self, monkeypatch):
        # the two-layer reference fails while the three-layer entry
        # computes: the entry takes the reference's status and detail and
        # is judged against no oracle
        compute = cli._compute_entry

        def failing_reference(base, *args):
            if base.spec == "F(5,1)+F(5,3)":
                return replace(base, status="skipped", detail="reference refused")
            return compute(base, *args)

        monkeypatch.setattr(cli, "_compute_entry", failing_reference)
        (entry,) = run_three_layer_check(5, 1).entries
        assert entry.spec == "F(5,1)+F(5,2)+F(5,3)"
        assert (entry.status, entry.detail) == ("skipped", "reference refused")
        assert entry.betti == compute(ReportEntry(entry.spec, 2, 4), None, None).betti
        assert (entry.oracle_name, entry.oracle, entry.match) == (None, None, None)


# `formula NAME --args ARGS --show-terms` output, one case per term formula
FORMULA_TERMS = {
    "prefix_increment": ("{2,3,5}", "2\n  gap[1]*C(2,2) = 2\n"),
    "skip_increment": ("{2,3,5}", "1\n  gap[1]*C(2,2) = 1\n"),
    "layer_increment": (
        "5,4",
        "24\n"
        "  {1,2,3,4} = 4\n"
        "  {1,2,3,5} = 4\n"
        "  {1,2,4,5} = 4\n"
        "  {1,3,4,5} = 5\n"
        "  {2,3,4,5} = 7\n",
    ),
    "power_betti3": (
        "4",
        "9\n"
        "  (i=1,j=0) = 3\n"
        "  (i=2,j=0) = 2\n"
        "  (i=2,j=1) = 4\n"
        "  (i=3,j=0) = 0\n"
        "  (i=3,j=1) = 0\n"
        "  (i=3,j=2) = 0\n",
    ),
    "uniform_betti2": ("6,3", "19\n  k=2 = 4\n  k=3 = 15\n"),
    "adjacent_pair_betti2": (
        "6,3",
        "55\n  single_layer = 19\n  C(6,5)*C(4,2) = 36\n",
    ),
    "prefix_betti3": (
        "5;{1,2,3,4}",
        "19\n"
        "  {1,2,3} = 1\n"
        "  {1,2,4} = 1\n"
        "  {1,2,5} = 1\n"
        "  {1,3,4} = 1\n"
        "  {1,3,5} = 1\n"
        "  {1,4,5} = 1\n"
        "  {2,3,4} = 2\n"
        "  {2,3,5} = 2\n"
        "  {2,4,5} = 2\n"
        "  {3,4,5} = 3\n"
        "  {1,2,3,4} = 4\n",
    ),
    "upto_betti3": ("5,4", "39\n  layer 3 = 15\n  layer 4 = 24\n"),
    "skip_layer_sum": (
        "6,2",
        "24\n"
        "  {2,3,4,5} = 4\n"
        "  {2,3,4,6} = 4\n"
        "  {2,3,5,6} = 4\n"
        "  {2,4,5,6} = 5\n"
        "  {3,4,5,6} = 7\n",
    ),
    "skip_pair_betti3": ("6,2", "29\n  k=2: layers (6,2) = 24\n  C(5,4) = 5\n"),
}


def _subset_texts(m: int) -> list[str]:
    return [
        "{" + ",".join(map(str, c)) + "}"
        for k in range(m + 1)
        for c in combinations(range(1, m + 1), k)
    ]


def _term_formula_grid(name: str) -> list[str]:
    """Arguments for a term formula, in and out of its domain."""
    if name in ("prefix_increment", "skip_increment"):
        return _subset_texts(6)[1:]
    if name == "prefix_betti3":
        return [f"{m};{s}" for m in range(1, 7) for s in _subset_texts(m)]
    if name == "power_betti3":
        return [str(m) for m in range(1, 9)]
    return [f"{m},{n}" for m in range(1, 9) for n in range(-1, m + 2)]


@pytest.fixture
def runner():
    return CliRunner()


class TestCommandLine:
    def test_homology_json(self, runner):
        result = runner.invoke(
            main, ["homology", "--family", "F(5,2)", "--scale", "2", "--max-dim", "3"]
        )
        assert result.exit_code == 0
        assert result.output == (
            '{"family":"F(5,2)","scale":2,"coeff":"z2","betti":[0,0,4,0],'
            '"complete_through":3,"chi":5}\n'
        )

    def test_homology_integer_coefficients(self, runner):
        result = runner.invoke(
            main,
            [
                "homology", "--family", "power(3)", "--scale", "2",
                "--max-dim", "4", "--coeff", "int",
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["coeff"] == "int"
        assert doc["betti"][3] == 1
        assert all(t == [] for t in doc["torsion"])

    def test_homology_integer_hypercube_at_scale_three(self, runner):
        # once refused by a boundary-size guard; the reduction takes well
        # under a second
        result = runner.invoke(
            main,
            [
                "homology", "--family", "power(5)", "--scale", "3",
                "--max-dim", "10", "--coeff", "int",
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["betti"] == [0, 0, 0, 0, 1, 0, 0, 10, 0, 0, 0]
        assert doc["torsion"] == [[]] * 11

    def test_homology_integer_route_runs_no_mod_2_pass(self, runner, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("betti_z2 called on the integer route")

        monkeypatch.setattr(cli, "betti_z2", refuse)
        result = runner.invoke(
            main,
            [
                "homology", "--family", "F(5,2)", "--scale", "2",
                "--max-dim", "3", "--coeff", "int",
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["betti"] == [0, 0, 4, 0]
        assert doc["complete_through"] == 3

    @pytest.mark.parametrize("coeff", ["z2", "int"])
    def test_homology_max_dim_zero_is_refused(self, runner, coeff):
        result = runner.invoke(
            main,
            [
                "homology", "--family", "F(4,2)", "--scale", "2",
                "--max-dim", "0", "--coeff", coeff,
            ],
        )
        assert result.exit_code == 1
        assert "max_dim 0 stores no edges" in result.output
        assert "--max-dim must be >= 1" in result.output

    @pytest.mark.parametrize("coeff", ["z2", "int"])
    def test_homology_max_dim_zero_without_edges_answers(self, runner, coeff):
        # at scale 0 no two vertices are joined, so dimension 0 is complete
        result = runner.invoke(
            main,
            [
                "homology", "--family", "F(4,2)", "--scale", "0",
                "--max-dim", "0", "--coeff", coeff,
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["betti"] == [5]
        assert doc["complete_through"] == 0
        assert doc["chi"] == 6

    def test_homology_bad_spec_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["homology", "--family", "F(5,", "--scale", "2", "--max-dim", "2"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["facets", "--family", "F(5,", "--scale", "2"],
            ["check-sc", "--family", "F(5,", "--scale", "2", "--subfamily", "F(5,2)"],
            ["check-sc", "--family", "F(5,2)", "--scale", "2", "--subfamily", "F(5,"],
        ],
        ids=["facets", "check-sc-family", "check-sc-subfamily"],
    )
    def test_bad_spec_is_usage_error_with_its_offset(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            "Error: unexpected input at offset 4 (expected integer)"
        )

    def test_homology_budget_is_reported(self, runner):
        result = runner.invoke(
            main,
            [
                "homology", "--family", "F(6,3)", "--scale", "2",
                "--max-dim", "4", "--max-simplices", "10",
            ],
        )
        assert result.exit_code == 1
        assert "budget" in result.output

    def test_facets_closed_form_matches_enumeration(self, runner):
        plain = runner.invoke(main, ["facets", "--family", "F(4,2)", "--scale", "2"])
        closed = runner.invoke(
            main, ["facets", "--family", "F(4,2)", "--scale", "2", "--closed-form"]
        )
        assert plain.exit_code == 0 and closed.exit_code == 0
        assert plain.output == closed.output
        lines = closed.output.splitlines()
        assert lines[0] == "m=4 scale=2 family=F(4,2)"
        assert len(lines) == 9

    def test_facets_closed_form_guards(self, runner):
        for args in (
            ["facets", "--family", "power(3)", "--scale", "2", "--closed-form"],
            ["facets", "--family", "F(4,2)", "--scale", "3", "--closed-form"],
            ["facets", "--family", "F(4,1)", "--scale", "2", "--closed-form"],
            # n = m-1: the core facets are faces of the one hull facet
            ["facets", "--family", "F(3,2)", "--scale", "2", "--closed-form"],
            ["facets", "--family", "F(4,3)", "--scale", "2", "--closed-form"],
        ):
            assert runner.invoke(main, args).exit_code == 2

    def test_formula_value(self, runner):
        result = runner.invoke(main, ["formula", "skip_pair_betti3", "--args", "6,2"])
        assert result.exit_code == 0
        assert result.output == "29\n"

    @pytest.mark.parametrize(
        "name,args,expected",
        [(name, args, expected) for name, (args, expected) in FORMULA_TERMS.items()],
        ids=list(FORMULA_TERMS),
    )
    def test_formula_terms(self, runner, name, args, expected):
        result = runner.invoke(main, ["formula", name, "--args", args, "--show-terms"])
        assert result.exit_code == 0
        assert result.output == expected

    @pytest.mark.parametrize("name", list(FORMULA_TERMS))
    def test_formula_terms_sum_to_value(self, runner, name):
        checked = 0
        for args in _term_formula_grid(name):
            result = runner.invoke(
                main, ["formula", name, "--args", args, "--show-terms"]
            )
            if result.exit_code != 0:
                continue
            value, *terms = result.output.splitlines()
            total = sum(int(line.rsplit(" = ", 1)[1]) for line in terms)
            assert total == int(value), f"{name} --args {args}"
            checked += 1
        assert checked > 0

    def test_formula_with_subset_argument(self, runner):
        result = runner.invoke(
            main, ["formula", "prefix_betti3", "--args", "5;{1,2,3}"]
        )
        assert result.exit_code == 0
        assert result.output == "1\n"

    @pytest.mark.parametrize(
        "name, args, offset",
        [
            ("prefix_betti3", "5;{1,2,3}xyz", 9),
            ("prefix_increment", "{1,2,3}}", 7),
            ("power_betti3", "6_0", 1),
            ("power_betti3", "6 6", 2),
            ("uniform_betti2", "6,3,1", 3),
        ],
    )
    def test_formula_rejects_trailing_input(self, runner, name, args, offset):
        result = runner.invoke(main, ["formula", name, "--args", args])
        assert result.exit_code == 2
        assert f"trailing input at offset {offset}" in result.output

    @pytest.mark.parametrize(
        "name, args", [("power_betti3", "+6"), ("power_betti3", "\u0666"),
                       ("uniform_betti2", "6,-1"), ("uniform_betti2", "6;3")],
    )
    def test_formula_integers_follow_the_spec_grammar(self, runner, name, args):
        # only ASCII digits make an integer, as in a family spec
        result = runner.invoke(main, ["formula", name, "--args", args])
        assert result.exit_code == 2
        assert "at offset" in result.output

    def test_formula_integer_arguments_have_no_ground_bound(self, runner):
        # the 63-element bound is on sets; an integer-only formula takes any m
        result = runner.invoke(main, ["formula", "power_betti3", "--args", " 70 "])
        assert result.exit_code == 0
        assert result.output == f"{formulas.power_betti3(70)}\n"

    def test_formula_unknown_name(self, runner):
        result = runner.invoke(main, ["formula", "betti_everything", "--args", "5"])
        assert result.exit_code == 2
        assert "available:" in result.output

    def test_formula_domain_error_is_usage_error(self, runner):
        result = runner.invoke(main, ["formula", "uniform_betti2", "--args", "5,1"])
        assert result.exit_code == 2

    def test_check_sc_holds(self, runner):
        result = runner.invoke(
            main,
            [
                "check-sc", "--family", "F(5,2)", "--scale", "2",
                "--subfamily", "F(5,2)",
            ],
        )
        assert result.exit_code == 0
        assert result.output == "holds\n"

    def test_check_sc_violated_names_witness(self, runner):
        result = runner.invoke(
            main,
            [
                "check-sc", "--family", "power(2)", "--scale", "1",
                "--subfamily", "upto(2,1)",
            ],
        )
        assert result.exit_code == 1
        assert result.output == "violated({1},{2})\n"

    def test_check_sc_ground_size_guard(self, runner):
        result = runner.invoke(
            main,
            [
                "check-sc", "--family", "F(5,2)", "--scale", "2",
                "--subfamily", "F(6,2)",
            ],
        )
        assert result.exit_code == 2

    def test_check_sc_subfamily_must_embed(self, runner):
        result = runner.invoke(
            main,
            [
                "check-sc", "--family", "F(5,2)", "--scale", "2",
                "--subfamily", "F(5,3)",
            ],
        )
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == (
            "Error: subfamily vertex {1,2,3} not in family"
        )

    def test_verify_json(self, runner):
        result = runner.invoke(
            main,
            [
                "verify", "--suite", "uniform", "--m-max", "5",
                "--format", "json", "--no-timing",
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert len(doc["entries"]) == 3
        assert all(e["match"] is True for e in doc["entries"])
        assert all(e["wall_time_ms"] is None for e in doc["entries"])

    def test_verify_text_default(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "power", "--m-max", "4"])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1].startswith("total=2 ok=2")

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "vrlat" in result.output


REPO = Path(__file__).resolve().parents[1]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on the checkout's sources, run serially."""
    env = {k: v for k, v in os.environ.items() if k != "VRLAT_THREADS"}
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=60,
    )


class TestEntryPoints:
    def test_library_path_imports_neither_click_nor_the_pool(self):
        # the library path the paper's checks run; the command and the
        # worker pool are the only users of these modules
        proc = _run_python("-c", (
            "import sys, vrlat\n"
            "print('json' in sys.modules)\n"
            "vrlat.emit_report(vrlat.run_verify('uniform', 5), 'json')\n"
            "heavy = ('click', 'concurrent.futures', 'multiprocessing', 'sympy')\n"
            "print(','.join(m for m in heavy if m in sys.modules))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        # json is loaded by the JSON report alone
        assert proc.stdout == "False\n\n"

    def test_python_dash_m_prints_the_version(self):
        proc = _run_python("-m", "vrlat", "--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"vrlat, version {vrlat.__version__}\n"

    def test_console_script_is_the_click_group(self):
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["vrlat"]
        module, _, attr = target.partition(":")
        group = getattr(importlib.import_module(module), attr)
        assert isinstance(group, click.Group) and group.name == "vrlat"
        assert group is main

    def test_old_module_entry_fails_loudly(self):
        # a verify that printed nothing and exited 0 would read as a pass
        proc = _run_python(
            "-m", "vrlat.cli", "verify", "--suite", "uniform", "--m-max", "4"
        )
        assert proc.returncode != 0
        assert "python -m vrlat" in proc.stderr

    def test_importing_the_main_module_runs_nothing(self):
        proc = _run_python("-c", "import vrlat.__main__")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
