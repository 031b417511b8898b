from __future__ import annotations

import csv
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import casetree as ct
from casetree.cli import main
from make_fixtures import fixture_texts

WORLDS = sorted(path.name for path in (Path(__file__).parent / "fixtures").glob("w*.world"))


@pytest.fixture()
def paths(fixture_dir, tmp_path):
    """Fixture file paths plus a crafted world where case1 must win:
    the observer lacks the ball and a teammate stands long from it."""
    world = ct.WorldSnapshot(
        wid="case1world",
        players=(
            ct.Player("Agent.1", "teamA", 10.0, 30.0),
            ct.Player("Agent.2", "teamA", 40.0, 30.0),
        ),
        ball=(12.0, 30.0),
        self_id="Agent.1",
    )
    world_path = tmp_path / "case1.world"
    world_path.write_text(ct.dump_snapshot(world))
    # elaborate matches predicate names case-insensitively: it would file
    # every partner perception under the later spelling
    partner_ctx = tmp_path / "partner.ctx.xml"
    partner_ctx.write_text((fixture_dir / "small.ctx.xml").read_text().replace(
        "</ctx>", '<predicate name="PARTNER"><variable name="P1" type="Agent"/>'
                  '<choice name="V" type="Boolean"/></predicate></ctx>'))
    return {
        "ctx": str(fixture_dir / "small.ctx.xml"),
        "base": str(fixture_dir / "three.cases.xml"),
        "world": str(world_path),
        "partner_ctx": str(partner_ctx),
        "tmp": tmp_path,
    }


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def same_id_worlds(fixture_dir, tmp_path):
    """Two different committed snapshots, both renamed to world id 'same'."""
    out = []
    for name in ("w101n6.world", "w202n6.world"):
        text = (fixture_dir / name).read_text()
        path = tmp_path / name
        path.write_text(text.replace(f"world {name.split('.')[0]}\n", "world same\n", 1))
        out.append(str(path))
    return out


class TestBuild:
    def test_three_case_fixture(self, paths, capsys):
        code = main(["build", "--ctx", paths["ctx"], "--base", paths["base"]])
        assert code == 0
        assert "nodes=5 leaves=3" in capsys.readouterr().out

    def test_empty_base(self, paths, tmp_path, capsys):
        empty = tmp_path / "empty.xml"
        empty.write_text("<caseBase><priority>hasball</priority></caseBase>")
        code = main(["build", "--ctx", paths["ctx"], "--base", str(empty)])
        assert code == 0
        assert "nodes=0 leaves=0" in capsys.readouterr().out

    def test_undeclared_predicate_names_it(self, paths, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text(
            "<caseBase><priority>hasball</priority>"
            '<case id="c"><predicate name="flies" weight="1.0">'
            '<value val="me" type="Me"/><choice val="true"/></predicate></case>'
            "</caseBase>"
        )
        code = main(["build", "--ctx", paths["ctx"], "--base", str(bad)])
        assert code == 2
        assert "flies" in capsys.readouterr().err

    def test_non_finite_weight_is_validation_failure(self, paths, fixture_dir, tmp_path,
                                                     capsys):
        bad = tmp_path / "nan.xml"
        text = (fixture_dir / "three.cases.xml").read_text()
        bad.write_text(text.replace('weight="0.3"', 'weight="nan"', 1))
        code = main(["build", "--ctx", paths["ctx"], "--base", str(bad)])
        assert code == 2
        assert "non-finite weight" in capsys.readouterr().err

    def test_priority_naming_a_predicate_twice_is_validation_failure(self, paths, fixture_dir,
                                                                     tmp_path, capsys):
        bad = tmp_path / "twice.xml"
        text = (fixture_dir / "three.cases.xml").read_text()
        bad.write_text(text.replace("<priority>hasball,partner,distance</priority>",
                                    "<priority>hasball,partner,distance,hasball</priority>"))
        code = main(["build", "--ctx", paths["ctx"], "--base", str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "casetree: priority order names predicate 'hasball' twice\n"

    def test_unexpected_exception_is_runtime_failure(self, paths, capsys, monkeypatch):
        def fail(cases, priority):
            raise RuntimeError("tree went away")

        monkeypatch.setattr("casetree.cli.build_tree", fail)
        code = main(["build", "--ctx", paths["ctx"], "--base", paths["base"]])
        assert code == 3
        assert capsys.readouterr().err == "casetree: RuntimeError: tree went away\n"

    def test_missing_file_is_validation_failure(self, paths):
        assert main(["build", "--ctx", paths["ctx"], "--base", "/no/such.xml"]) == 2

    def test_usage_error(self):
        assert main(["build"]) == 1
        assert main(["frobnicate"]) == 1


class TestRetrieve:
    def test_crafted_world_selects_case1(self, paths, capsys):
        code = main([
            "retrieve", "--ctx", paths["ctx"], "--base", paths["base"],
            "--world", paths["world"],
        ])
        assert code == 0
        out = capsys.readouterr().out
        # full match on all three perceptions over a six-perception target
        assert "best=case1" in out
        assert "score=0.750000" in out
        assert "substitution=A->Agent.2" in out
        assert "prune=on" in out

    def test_tree_agrees_with_linear_engine(self, paths, capsys):
        main(["retrieve", "--ctx", paths["ctx"], "--base", paths["base"],
              "--world", paths["world"], "--no-prune"])
        tree_out = capsys.readouterr().out
        main(["retrieve", "--ctx", paths["ctx"], "--base", paths["base"],
              "--world", paths["world"], "--engine", "linear"])
        linear_out = capsys.readouterr().out
        assert tree_out.split("tests=")[0].replace("prune=off", "") == \
            linear_out.split("tests=")[0].replace("prune=off", "")

    def test_budget_zero_returns_lowest_case_id(self, paths, capsys):
        code = main([
            "retrieve", "--ctx", paths["ctx"], "--base", paths["base"],
            "--world", paths["world"], "--budget", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best=case1" in out and "score=0.000000" in out and "tests=0" in out

    def test_prune_flag_changes_output_and_is_echoed(self, paths, capsys):
        main(["retrieve", "--ctx", paths["ctx"], "--base", paths["base"],
              "--world", paths["world"], "--no-prune"])
        assert "prune=off" in capsys.readouterr().out

    def test_csv_is_deterministic(self, paths, capsys):
        out1 = paths["tmp"] / "r1.csv"
        out2 = paths["tmp"] / "r2.csv"
        for out in (out1, out2):
            assert main([
                "retrieve", "--ctx", paths["ctx"], "--base", paths["base"],
                "--world", paths["world"], "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "case,score,scanned,pruned,evaluated,substitution,best"
        assert len(lines) == 4

    def test_out_quotes_a_case_id_holding_a_comma(self, fixture_dir, tmp_path, capsys):
        flags = ["retrieve", "--ctx", str(fixture_dir / "football.ctx.xml"),
                 "--world", str(fixture_dir / "w202n6.world")]
        base = tmp_path / "comma.cases.xml"
        base.write_text((fixture_dir / "bench50.cases.xml").read_text()
                        .replace('<case id="c000"', '<case id="c0,00"', 1))
        plain, comma = tmp_path / "plain.csv", tmp_path / "comma.csv"
        assert main([*flags, "--base", str(fixture_dir / "bench50.cases.xml"),
                     "--out", str(plain)]) == 0
        assert main([*flags, "--base", str(base), "--out", str(comma)]) == 0
        capsys.readouterr()
        rows = read_csv(comma)
        assert len(rows) == 51 and all(len(r) == 7 for r in rows)
        # ',' sorts before '0', so the renamed case keeps its place
        assert rows[1][0] == "c0,00"
        assert comma.read_text().splitlines()[1].startswith('"c0,00",')
        assert rows[2:] == read_csv(plain)[2:] and rows[1][1:] == read_csv(plain)[1][1:]

    def test_deadline_budget_mode(self, paths, capsys):
        code = main([
            "retrieve", "--ctx", paths["ctx"], "--base", paths["base"],
            "--world", paths["world"], "--deadline-ms", "5000",
        ])
        assert code == 0
        assert "best=" in capsys.readouterr().out

    def test_budget_and_deadline_are_exclusive(self, paths, capsys):
        code = main([
            "retrieve", "--ctx", paths["ctx"], "--base", paths["base"],
            "--world", paths["world"], "--deadline-ms", "50", "--budget", "3",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_two_worlds_with_one_id_are_validation_failure(self, fixture_dir, tmp_path,
                                                            capsys):
        a, b = same_id_worlds(fixture_dir, tmp_path)
        code = main(["retrieve", "--ctx", str(fixture_dir / "football.ctx.xml"),
                     "--base", str(fixture_dir / "bench50.cases.xml"),
                     "--world", a, "--world", b])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "world id 'same'" in captured.err

    def test_retrieve_rejects_two_worlds(self, fixture_dir, capsys):
        code = main(["retrieve", "--ctx", str(fixture_dir / "football.ctx.xml"),
                     "--base", str(fixture_dir / "bench50.cases.xml"),
                     "--world", str(fixture_dir / "w101n6.world"),
                     "--world", str(fixture_dir / "w202n6.world")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "retrieve expects exactly one --world" in captured.err

    @pytest.mark.parametrize("engine, message", [
        ("tree", "oracle failed at "),
        ("linear", "evaluation failed on "),
    ])
    def test_oracle_failure_is_runtime_failure(self, paths, capsys, monkeypatch, engine,
                                               message):
        def fail(self, name, values, desired):
            raise ConnectionError("context box went away")

        monkeypatch.setattr(ct.TargetCase, "completions", fail)
        code = main(["retrieve", "--ctx", paths["ctx"], "--base", paths["base"],
                     "--world", paths["world"], "--engine", engine])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"casetree: {message}")
        assert err.endswith(": context box went away\n")

    def test_oracle_failure_message_in_full(self, fixture_dir, capsys, monkeypatch):
        def fail(self, name, values, desired):
            raise ConnectionError("context box went away")

        monkeypatch.setattr(ct.TargetCase, "completions", fail)
        code = main(["retrieve", "--ctx", str(fixture_dir / "football.ctx.xml"),
                     "--base", str(fixture_dir / "bench50.cases.xml"),
                     "--world", str(fixture_dir / "w202n6.world")])
        assert code == 3
        assert capsys.readouterr().err == (
            "casetree: oracle failed at hasBall(me)=[False]: context box went away\n")

    @pytest.mark.parametrize("flags, message", [
        (["--self", "Agent.99"], "observer 'Agent.99' is not a player"),
        (["--radius", "nan"], "radius"),
        (["--radius", "-5"], "radius"),
        (["--deadline-ms", "nan"], "deadline"),
        (["--ctx", "{partner_ctx}"], "predicate 'PARTNER' differs from 'partner' only in case"),
    ])
    def test_bad_observer_or_radius_is_validation_failure(self, paths, capsys, flags,
                                                           message):
        code = main(["retrieve", "--ctx", paths["ctx"], "--base", paths["base"],
                     "--world", paths["world"], *(flag.format(**paths) for flag in flags)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestBench:
    def test_memory_suite(self, paths, capsys):
        out = paths["tmp"] / "mem.csv"
        code = main(["bench", "memory", "--ctx", paths["ctx"],
                     "--base", paths["base"], "--out", str(out)])
        assert code == 0
        assert f"wrote {out} rows=3" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[-1] == "3,8,5"

    def test_alpha_suite_quotes_a_world_id_holding_a_comma(self, fixture_dir, tmp_path,
                                                            capsys):
        world = tmp_path / "comma.world"
        world.write_text((fixture_dir / "w101n6.world").read_text()
                         .replace("world w101n6\n", "world w,1\n", 1))
        out = tmp_path / "alpha.csv"
        code = main(["bench", "alpha", "--ctx", str(fixture_dir / "football.ctx.xml"),
                     "--base", str(fixture_dir / "bench50.cases.xml"),
                     "--world", str(world), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"wrote {out} rows=5\n"
        rows = read_csv(out)
        assert len(rows) == 6 and all(len(r) == 12 for r in rows)
        assert [r[0] for r in rows[1:]] == ["w,1"] * 5

    def test_alpha_suite_sizes_non_increasing(self, paths, capsys):
        out = paths["tmp"] / "alpha.csv"
        truth = paths["tmp"] / "truth.txt"
        truth.write_text("case1world: case1\n")
        code = main(["bench", "alpha", "--ctx", paths["ctx"], "--base", paths["base"],
                     "--world", paths["world"], "--truth", str(truth),
                     "--alphas", "0,0.5,1", "--threshold", "0.4", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        sizes = [int(r.split(",")[6]) + int(r.split(",")[7]) for r in rows]
        assert sizes == sorted(sizes, reverse=True)

    def test_budget_suite_default_grid(self, fixture_dir, tmp_path, capsys):
        # the README's third example: with no --budgets, 25 budgets step from 0
        # to the larger of the flat perception count and the arc count, 264 here
        out = tmp_path / "budget.csv"
        code = main(["bench", "budget", "--ctx", str(fixture_dir / "football.ctx.xml"),
                     "--base", str(fixture_dir / "bench50.cases.xml"),
                     "--world", str(fixture_dir / "w202n6.world"),
                     "--truth", str(fixture_dir / "bench50.truth.txt"), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"wrote {out} rows=50\n"
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(int(r[2]), r[3]) for r in rows] == [
            (b, engine) for b in range(0, 265, 11) for engine in ("tree", "linear")]

    def test_budget_suite_is_byte_identical_across_runs(self, paths, capsys):
        truth = paths["tmp"] / "truth.txt"
        truth.write_text("case1world: case1,case3\n")
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = paths["tmp"] / name
            code = main(["bench", "budget", "--ctx", paths["ctx"],
                         "--base", paths["base"], "--world", paths["world"],
                         "--truth", str(truth), "--budgets", "0,2,4,8",
                         "--reps", "1", "--seed", "7", "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header.startswith("target,alpha,budget,engine,recall,precision")

    @pytest.mark.parametrize("suite", ["alpha", "budget"])
    @pytest.mark.parametrize("threshold", ["2", "-1", "nan"])
    def test_threshold_outside_unit_interval_is_validation_failure(
            self, paths, capsys, suite, threshold):
        out = paths["tmp"] / "x.csv"
        code = main(["bench", suite, "--ctx", paths["ctx"], "--base", paths["base"],
                     "--world", paths["world"], "--budgets", "0,2", "--reps", "1",
                     "--threshold", threshold, "--out", str(out)])
        assert code == 2
        assert "threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_suite_rejects_two_worlds_with_one_id(self, fixture_dir, tmp_path, capsys):
        a, b = same_id_worlds(fixture_dir, tmp_path)
        out = tmp_path / "alpha.csv"
        code = main(["bench", "alpha", "--ctx", str(fixture_dir / "football.ctx.xml"),
                     "--base", str(fixture_dir / "bench50.cases.xml"),
                     "--world", a, "--world", b, "--out", str(out)])
        assert code == 2
        assert "world id 'same'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["alpha", "budget"])
    def test_truth_naming_an_unknown_case_is_validation_failure(self, fixture_dir, tmp_path,
                                                                capsys, suite):
        truth, out = tmp_path / "truth.txt", tmp_path / "x.csv"
        flags = ["bench", suite, "--ctx", str(fixture_dir / "football.ctx.xml"),
                 "--base", str(fixture_dir / "bench50.cases.xml"),
                 "--world", str(fixture_dir / "w101n6.world"), "--truth", str(truth),
                 "--budgets", "0,2", "--reps", "1", "--out", str(out)]
        truth.write_text("w101n6: c000,c999\n")
        assert main(flags) == 2
        assert "target 'w101n6' names case 'c999', which the base lacks" in capsys.readouterr().err
        assert not out.exists()
        # a line for a target no --world gives is not scored, so it is not checked
        truth.write_text("w101n6: c000\nnosuchworld: c999\n")
        assert main(flags) == 0

    def test_bench_requires_world_for_metric_suites(self, paths):
        out = paths["tmp"] / "x.csv"
        assert main(["bench", "alpha", "--ctx", paths["ctx"],
                     "--base", paths["base"], "--out", str(out)]) == 2


def bench50(fixture_dir, world, *flags) -> list[str]:
    """``retrieve`` against the bench50 base over the football context."""
    return ["retrieve", "--ctx", str(fixture_dir / "football.ctx.xml"),
            "--base", str(fixture_dir / "bench50.cases.xml"), "--world", str(world), *flags]


def per_case(path) -> list[tuple[str, ...]]:
    """A ``retrieve --out`` table's case, score, evaluated, substitution and
    best columns: what an unpruned tree scan and a linear scan share."""
    return [(row[0], row[1], row[4], row[5], row[6]) for row in read_csv(path)]


class TestCommittedOutput:
    """What the command prints and writes on the committed fixtures, and
    that ``tests/make_fixtures.py`` still generates them."""

    def test_make_fixtures_regenerates_them_byte_for_byte(self, fixture_dir):
        texts, _ = fixture_texts()
        assert sorted(texts) == sorted(["bench50.cases.xml", "bench50.truth.txt", *WORLDS])
        for name, text in texts.items():
            assert text.encode("utf-8") == (fixture_dir / name).read_bytes(), name

    @pytest.mark.parametrize("ctx, base, line", [
        ("small.ctx.xml", "three.cases.xml", "nodes=5 leaves=3 depth=3"),
        ("football.ctx.xml", "bench50.cases.xml", "nodes=186 leaves=50 depth=8"),
    ], ids=["three", "bench50"])
    def test_build_prints_the_whole_line(self, fixture_dir, capsys, ctx, base, line):
        code = main(["build", "--ctx", str(fixture_dir / ctx), "--base", str(fixture_dir / base)])
        assert code == 0
        assert capsys.readouterr().out == line + "\n"

    def test_readme_retrieve_example(self, fixture_dir, capsys):
        assert main(bench50(fixture_dir, fixture_dir / "w202n6.world", "--budget", "40")) == 0
        assert capsys.readouterr().out == (
            "best=c006 score=0.588235 substitution=A->Agent.3 prune=on tests=40\n")

    @pytest.mark.parametrize("world", WORLDS)
    def test_deadline_that_does_not_pass_answers_the_unbounded_best(self, fixture_dir, capsys,
                                                                    world):
        # tests= may differ, since top-1 stops once no bound beats the leader
        flags = bench50(fixture_dir, fixture_dir / world)
        assert main(flags) == 0
        best, score, substitution, *_ = capsys.readouterr().out.split()
        assert main([*flags, "--deadline-ms", "5000"]) == 0
        assert capsys.readouterr().out.split()[:3] == [best, score, substitution]

    @pytest.mark.parametrize("world", WORLDS)
    def test_unpruned_tree_and_linear_scans_agree_per_case(self, fixture_dir, tmp_path,
                                                            capsys, world):
        # an unpruned tree scan converges to the offline similarity that the
        # linear scan computes
        tree, linear = tmp_path / "tree.csv", tmp_path / "linear.csv"
        flags = bench50(fixture_dir, fixture_dir / world)
        assert main([*flags, "--no-prune", "--out", str(tree)]) == 0
        assert main([*flags, "--engine", "linear", "--out", str(linear)]) == 0
        capsys.readouterr()
        assert len(per_case(tree)) == 51
        assert per_case(tree) == per_case(linear)

    def test_22_player_ranking_does_not_depend_on_the_hash_seed(self, fixture_dir, tmp_path,
                                                               capsys):
        # a whole-pitch ranking, pruned or not, writes one table under every
        # hash seed; unpruned, it agrees per case with the linear scan, where
        # one-agent-slot answers hold up to 21 rows
        world = tmp_path / "w22.world"
        world.write_text(ct.dump_snapshot(ct.generate_world(900007, 22)))
        flags = bench50(fixture_dir, world, "--radius", "120")
        script = textwrap.dedent("""\
            import sys
            from casetree.cli import main
            *flags, out = sys.argv[1:]
            for prune in ("--prune", "--no-prune"):
                assert main([*flags, prune, "--out", f"{out}{prune}.csv"]) == 0
            """)
        src = Path(ct.__file__).resolve().parent.parent
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                                os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", script, *flags, str(tmp_path / seed)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        for prune in ("--prune", "--no-prune"):
            first = (tmp_path / f"0{prune}.csv").read_bytes()
            assert first == (tmp_path / f"2{prune}.csv").read_bytes(), prune
            assert len(first.splitlines()) == 51
        linear = tmp_path / "linear.csv"
        assert main([*flags, "--engine", "linear", "--out", str(linear)]) == 0
        capsys.readouterr()
        assert per_case(tmp_path / "0--no-prune.csv") == per_case(linear)
