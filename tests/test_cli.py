from __future__ import annotations

import pytest

import casetree as ct
from casetree.cli import main


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
    return {
        "ctx": str(fixture_dir / "small.ctx.xml"),
        "base": str(fixture_dir / "three.cases.xml"),
        "world": str(world_path),
        "tmp": tmp_path,
    }


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


    @pytest.mark.parametrize("flags, message", [
        (["--self", "Agent.99"], "observer 'Agent.99' is not a player"),
        (["--radius", "nan"], "radius"),
        (["--radius", "-5"], "radius"),
    ])
    def test_bad_observer_or_radius_is_validation_failure(self, paths, capsys, flags,
                                                           message):
        code = main(["retrieve", "--ctx", paths["ctx"], "--base", paths["base"],
                     "--world", paths["world"], *flags])
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

    def test_bench_requires_world_for_metric_suites(self, paths):
        out = paths["tmp"] / "x.csv"
        assert main(["bench", "alpha", "--ctx", paths["ctx"],
                     "--base", paths["base"], "--out", str(out)]) == 2
