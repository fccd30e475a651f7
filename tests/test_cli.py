"""CLI smoke tests."""

import pytest

from repro.cli import build_parser, main


def test_demo_runs(capsys):
    assert main(["demo", "--n", "30", "--m", "60", "--k", "4",
                 "--batches", "2", "--batch-size", "3", "--init", "free"]) == 0
    out = capsys.readouterr().out
    assert "consistency check passed" in out


def test_verify_runs(capsys):
    assert main(["verify", "--trials", "2"]) == 0
    assert "2/2" in capsys.readouterr().out


def test_lowerbound_runs(capsys):
    assert main(["lowerbound", "--n", "60", "--m", "600", "--pairs", "2"]) == 0
    assert "u-ingress" in capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_demo_with_input_file(tmp_path, capsys):
    from repro.graphs import random_weighted_graph
    from repro.graphs.io import write_edge_list

    g = random_weighted_graph(20, 40, 0)
    path = str(tmp_path / "g.edges")
    write_edge_list(g, path)
    assert main(["demo", "--input", path, "--k", "4", "--batches", "2",
                 "--batch-size", "3", "--init", "free"]) == 0
    assert "consistency check passed" in capsys.readouterr().out


def test_replay_stream(tmp_path, capsys):
    from repro.graphs import churn_stream, random_weighted_graph
    from repro.graphs.io import write_stream

    g = random_weighted_graph(20, 40, 0)
    s = churn_stream(g, 4, 3, rng=0)
    path = str(tmp_path / "s.json")
    write_stream(s, path)
    assert main(["replay", path, "--k", "4"]) == 0
    assert "done; total" in capsys.readouterr().out


def test_stream_runs(capsys):
    assert main(["stream", "sliding-window",
                 "--k", "8", "--ticks", "12", "--rate", "4"]) == 0
    out = capsys.readouterr().out
    assert "consistency check passed" in out
    assert "admitted" in out and "shipped" in out


def test_stream_no_coalesce_ships_everything(capsys):
    assert main(["stream", "uniform", "--no-coalesce",
                 "--ticks", "8", "--rate", "4"]) == 0
    out = capsys.readouterr().out
    assert "absorbed  0" in out or "absorbed 0" in out


def test_stream_rejects_unknown_shape(capsys):
    assert main(["stream", "nope"]) == 2
    assert "unknown stream shape" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["demo"],
    ["trace", "smoke-small"],
    ["chaos", "smoke-small"],
    ["watch", "smoke-small"],
    ["serve"],
    ["loadgen"],
], ids=lambda argv: argv[0])
def test_backend_rejects_an_unknown_name_up_front(argv, capsys):
    """An unknown engine is a usage error (exit 2), not a traceback."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + ["--backend", "scalar"])
    assert exc.value.code == 2
    assert "invalid choice: 'scalar'" in capsys.readouterr().err
    args = build_parser().parse_args(argv + ["--backend", "reference"])
    assert args.backend == "reference"
