"""CLI subcommand tests (in-process, via main(argv))."""

import json

from repro.experiments.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "spill_reload" in out
    assert "refcount_checkpoint" in out


def test_run_json(capsys):
    assert main(["run", "move_chain", "--max-ops", "500", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["workload"] == "move_chain"
    assert data["instructions"] == 500


def test_sweep_and_report(tmp_path, capsys):
    code = main([
        "sweep", "--schemes", "isrb", "--workloads", "move_chain",
        "--max-ops", "500", "--jobs", "1", "--quiet",
        "--cache-dir", str(tmp_path / "cache"),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "**geomean**" in captured.out
    assert "1 generated" in captured.err

    artifact = tmp_path / "out" / "sweep.json"
    assert artifact.exists()
    assert main(["report", str(artifact), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("workload,")


def test_version_flag(capsys):
    import repro

    try:
        main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_sweep_resume_skips_finished_cells(tmp_path, capsys):
    argv = ["sweep", "--schemes", "isrb", "--workloads", "move_chain",
            "--max-ops", "500", "--quiet", "--resume",
            "--cache-dir", "", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "2 cell(s) appended, 0 resumed" in err
    assert (tmp_path / "out" / "results_store.jsonl").exists()
    assert main(argv) == 0
    assert "0 cell(s) appended, 2 resumed" in capsys.readouterr().err


def test_paper_smoke_single_figure(tmp_path, capsys):
    out = tmp_path / "paper"
    assert main(["paper", "--smoke", "--figure", "9", "--quiet",
                 "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert "cells" in captured.out
    assert (out / "REPORT.md").exists()
    assert (out / "figure9.svg").exists()
    assert (out / "figures.json").exists()
    assert (out / "store" / "results.jsonl").exists()


def test_paper_rejects_unknown_figure_value(tmp_path, capsys):
    import pytest

    with pytest.raises(SystemExit):
        main(["paper", "--figure", "12", "--out-dir", str(tmp_path)])
    assert "--figure" in capsys.readouterr().err


def test_sweep_rejects_unknown_scheme(tmp_path, capsys):
    code = main(["sweep", "--schemes", "bogus",
                 "--out-dir", str(tmp_path / "out"),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_sweep_inject_faults_matches_clean_artifacts(tmp_path, capsys):
    base = ["sweep", "--schemes", "isrb", "--workloads", "move_chain",
            "--max-ops", "500", "--quiet", "--cache-dir", ""]
    assert main(base + ["--out-dir", str(tmp_path / "clean")]) == 0
    capsys.readouterr()
    assert main(base + ["--out-dir", str(tmp_path / "chaos"), "--resume",
                        "--inject-faults", "3", "--fault-rate", "1.0",
                        "--fault-kinds", "raise,torn_write"]) == 0
    err = capsys.readouterr().err
    assert "reliability:" in err
    # The chaos artifacts are byte-identical to the clean ones.
    for name in ("sweep.md", "sweep.json", "sweep.csv"):
        assert ((tmp_path / "chaos" / name).read_bytes()
                == (tmp_path / "clean" / name).read_bytes())


#: A two-cell sweep as ``repro sweep --spec`` and ``POST /sweeps`` take it.
SPEC = {"schemes": ["isrb"], "workloads": ["move_chain"], "max_ops": 500}


def _sweep_spec_file(tmp_path, name: str, document) -> int:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(document))
    return main(["sweep", "--spec", str(path), "--quiet", "--cache-dir", "",
                 "--out-dir", str(tmp_path / name)])


def test_sweep_spec_file_bare_and_envelope_agree(tmp_path, capsys):
    assert _sweep_spec_file(tmp_path, "bare", SPEC) == 0
    assert _sweep_spec_file(tmp_path, "envelope", {"api": 1, "spec": SPEC}) == 0
    assert ((tmp_path / "bare" / "sweep.json").read_bytes()
            == (tmp_path / "envelope" / "sweep.json").read_bytes())


def test_sweep_spec_file_rejects_what_the_service_rejects(tmp_path, capsys):
    code = _sweep_spec_file(tmp_path, "typo",
                            {"api": 1, "spec": SPEC, "faultz": {"seed": 1}})
    assert code == 2
    assert "faultz" in capsys.readouterr().err
    assert not (tmp_path / "typo").exists()
    assert _sweep_spec_file(tmp_path, "v2", {"api": 2, "spec": SPEC}) == 2
    assert "api version 2" in capsys.readouterr().err


def test_sweep_spec_file_runs_the_envelope_fault_plan(tmp_path, capsys):
    assert _sweep_spec_file(tmp_path, "clean", SPEC) == 0
    capsys.readouterr()
    faults = {"seed": 3, "rate": 1.0, "kinds": ["raise"]}
    assert _sweep_spec_file(tmp_path, "faulty",
                            {"api": 1, "spec": SPEC, "faults": faults}) == 0
    err = capsys.readouterr().err
    assert ("reliability: 4 attempt(s) for 2 job(s), 2 retried "
            "(2 transient(s))") in err
    assert ((tmp_path / "faulty" / "sweep.json").read_bytes()
            == (tmp_path / "clean" / "sweep.json").read_bytes())


def test_sweep_rejects_unknown_fault_kind(tmp_path, capsys):
    code = main(["sweep", "--schemes", "isrb", "--workloads", "move_chain",
                 "--max-ops", "500", "--quiet", "--cache-dir", "",
                 "--out-dir", str(tmp_path / "out"),
                 "--inject-faults", "1", "--fault-kinds", "explode"])
    assert code == 2
    assert "unknown fault kind" in capsys.readouterr().err


def test_store_verify_stats_compact(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--schemes", "isrb", "--workloads", "move_chain",
                 "--max-ops", "500", "--quiet", "--resume", "--cache-dir", "",
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    store_file = out / "results_store.jsonl"

    assert main(["store", "verify", str(store_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["records"] == 2 and report["corrupt_lines"] == 0

    assert main(["store", "stats", str(store_file)]) == 0
    text = capsys.readouterr().out
    assert "2 record(s)" in text and "torn tail: no" in text

    assert main(["store", "compact", str(store_file)]) == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["records_kept"] == 2

    # verify exits non-zero on damage (a torn tail), compact repairs it.
    with store_file.open("a") as handle:
        handle.write('{"torn')
    assert main(["store", "verify", str(store_file)]) == 1
    capsys.readouterr()
    assert main(["store", "compact", str(store_file)]) == 0
    capsys.readouterr()
    assert main(["store", "verify", str(store_file)]) == 0


def test_store_verify_missing_file(tmp_path, capsys):
    assert main(["store", "verify", str(tmp_path / "absent.jsonl")]) == 2
    assert "no results store" in capsys.readouterr().err
