import csv
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from hurwitzlab.arith import FF_MODEL_CAP, count_imaginary
from hurwitzlab.cli import (EXIT_CAPACITY, EXIT_OK, EXIT_VALIDATION,
                            build_parser, load_config, main, normalize_config,
                            resolve_c, resolve_group, run_config)
from hurwitzlab.errors import ValidationError
from hurwitzlab.groups import symmetric


def test_resolve_group():
    assert resolve_group("S3").order == 6
    assert resolve_group("C9").order == 9
    assert resolve_group("D5").order == 10
    assert resolve_group("Q8").order == 8
    assert resolve_group("C3xC3").order == 9
    assert resolve_group("A4").order == 12
    with pytest.raises(ValidationError):
        resolve_group("X9")


def test_resolve_c():
    s3 = symmetric(3)
    assert len(resolve_c(s3, "all")) == 5
    assert len(resolve_c(s3, "involutions")) == 3
    assert len(resolve_c(s3, "order:3")) == 2
    invol = resolve_c(s3, "involutions")[0]
    assert sorted(resolve_c(s3, f"class-of:{invol}")) == \
        sorted(resolve_c(s3, "involutions"))
    assert resolve_c(s3, "1, 3,4") == [1, 3, 4]


def test_orbits_cli(tmp_path, capsys):
    out = tmp_path / "orbits.csv"
    rc = main(["orbits", "--group", "S3", "--c", "involutions", "--n", "4",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[2] == ("orbit,representative,size,invariant_torsion,"
                        "invariant_vector,shape")
    assert lines[3].startswith("0,") and ",8," in lines[3]


def test_exit_codes(capsys):
    assert main(["orbits", "--group", "NOPE", "--n", "3"]) == EXIT_VALIDATION
    assert main(["frob-count", "--group", "S3", "--c", "all", "--q", "3",
                 "--n-min", "2", "--n-max", "2"]) == EXIT_VALIDATION


def test_config_file_json(tmp_path):
    cfg = {"kind": "randgrp-moment", "h": "C3", "n_min": 1, "n_max": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    loaded = load_config(str(path))
    rep = run_config(loaded)
    assert rep.rows[0] == [1, "2/3", "1/1"]


def test_config_file_ini(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("kind = randgrp-moment\nh = C3\nn_min = 1\nn_max = 1\n")
    rep = run_config(load_config(str(path)))
    assert rep.rows == [[1, "2/3", "1/1"]]


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ValidationError):
        run_config({"kind": "randgrp-moment", "h": "C3", "bogus": 1})
    with pytest.raises(ValidationError):
        run_config({"kind": "wat"})


def test_config_takes_the_subcommand_parameters():
    # defaults filled in, values typed, None dropped: the echo of a config
    # is the echo of the subcommand
    assert normalize_config({"kind": "frob-count", "group": "D5",
                             "c": "involutions", "q": "3"}) == {
        "kind": "frob-count", "group": "D5", "c": "involutions",
        "g_inf": "auto", "q": 3, "n_min": 2, "n_max": 6}
    assert normalize_config({"kind": "verify", "quick": "yes"}) == {
        "kind": "verify", "suite": "all", "quick": True}
    assert normalize_config({"kind": "predict-moment", "h": "C3",
                             "q": 7})["q"] == "7"
    for bad in ({"n": "four"}, {"n": True}, {"n": 4.0}, {"n": 4, "trials": 9},
                {}, {"n": 4, "h": "C3"}):
        with pytest.raises(ValidationError):
            normalize_config({"kind": "orbits", "group": "S3", **bad})
    # the aliases of older config files are gone
    with pytest.raises(ValidationError):
        normalize_config({"kind": "randgrp-moment", "h": "C3", "n": 1})
    with pytest.raises(ValidationError):
        normalize_config({"kind": "arith-nf-moment", "dmax": 9, "h": "3"})
    with pytest.raises(ValidationError):
        normalize_config({"kind": "arith-ff-moment", "q": 3, "dmax": 3,
                          "target": "5", "seed": 1, "mode": "fast"})


def test_malformed_config_file_exits_3(tmp_path, capsys):
    for text in ("kind = orbits\ngroup = S3\nc = involutions\n",
                 "kind = orbits\ngroup = S3\nn = four\n",
                 "kind = orbits\ngroup = S3\nn = 4\ntrials = 9\n",
                 "[orbits]\nkind = orbits\ngroup = S3\nn = 4\n"):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        assert main(["run", str(path)]) == EXIT_VALIDATION


@pytest.mark.parametrize("name, text", [
    ("cfg.ini", "kind orbits\n"),
    ("cfg.json", '{"kind": '),
    ("missing.ini", None),
])
def test_unreadable_config_file_exits_3(name, text, tmp_path, capsys):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["orbits", "--group", "C3", "--c", "involutions", "--n", "4"],
    ["orbits", "--group", "A4", "--c", "order:3", "--g-inf", "involution",
     "--n", "4"],
    ["orbits", "--group", "S3", "--g-inf", "x", "--n", "4"],
    ["orbits", "--group", "S3", "--c", "order:x", "--n", "4"],
    ["orbits", "--group", "S3", "--c", "99", "--n", "3"],
    ["orbits", "--group", "S3", "--c", "class-of:99", "--n", "3"],
    ["orbits", "--group", "S3", "--g-inf", "99", "--n", "3"],
    ["randgrp", "moment", "--h", "C3", "--gamma-inf", "7"],
    ["randgrp", "moment", "--h", "C3", "--gamma-inf", "-1"],
    ["predict-moment", "--h", "C3", "--q", "x"],
    ["arith", "nf-moment", "--dmax", "10", "--H", "x"],
    ["orbits", "--group", "C2xx", "--n", "3"],
])
def test_malformed_values_exit_3(argv, capsys):
    assert main(argv) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


def test_readme_examples_parse(tmp_path):
    # parses only: every CLI line of the README's sh blocks, and its INI
    # example through the parameter table
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines()
             if line.startswith("hurwitzlab ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])
    (ini,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    path = tmp_path / "experiment.cfg"
    path.write_text(ini)
    assert normalize_config(load_config(str(path)))["kind"] \
        == "arith-ff-moment"


@pytest.mark.parametrize("flag, text", [
    ("--group", "order\n0\n"),
    ("--group", "order x\n0\n"),
    ("--group", "order 2\n0 1\n1 a\n"),
    ("--gamma", "order 2\n0 1\n1 0\ngamma\n0 1\n1 z\n"),
    ("--gamma", "order 2\n0 1\n1 0\ngamma\n0 1\n1 5\n"),
    ("--gamma", "order 2\n0 1\n1 0\ngamma\n"),
    ("--group", "perm degree=3\n(0 5)\n"),
    ("--group", None),
    ("--gamma", None),
    ("--out", None),
], ids=["order-without-n", "order-x", "table-entry", "gamma-entry",
        "gamma-point", "gamma-empty", "cycle-point", "missing-group",
        "missing-gamma", "out-dir"])
def test_bad_files_exit_3(flag, text, tmp_path, capsys):
    """Malformed or missing group files, and a report path in a directory
    that does not exist, are validation errors, never tracebacks."""
    path = tmp_path / "group.txt"
    if text is not None:
        path.write_text(text)
    if flag == "--group":
        argv = ["orbits", "--group", f"@{path}", "--n", "2"]
    elif flag == "--gamma":
        argv = ["predict-moment", "--h", "C2", "--gamma", f"@{path}"]
    else:
        argv = ["orbits", "--group", "S3", "--n", "2",
                "--out", str(tmp_path / "missing" / "r.csv")]
    assert main(argv) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


def test_csv_rows_round_trip(capsys):
    """`randgrp sample` labels hold commas and quotes; csv.reader gives
    back each row's two fields."""
    assert main(["randgrp", "sample", "--n", "2", "--trials", "50",
                 "--seed", "1"]) == EXIT_OK
    text = capsys.readouterr().out
    rows = list(csv.reader(ln for ln in text.splitlines()
                           if not ln.startswith("#")))
    report = run_config({"kind": "randgrp-sample", "n": 2, "trials": 50,
                         "seed": 1})
    assert rows == [report.columns] + [[str(x) for x in row]
                                       for row in report.rows]
    assert rows[1] == ['["ab-inv", []]', "25"]


def test_seed_required_for_sampling():
    with pytest.raises(ValidationError):
        run_config({"kind": "randgrp-sample", "n": 2, "trials": 10,
                    "gamma": "C2"})


def test_report_reproducible():
    cfg = {"kind": "randgrp-sample", "gamma": "C2", "exponent": 3, "n": 3,
           "trials": 200, "seed": 9}
    r1 = run_config(dict(cfg))
    r2 = run_config(dict(cfg))
    assert r1.fingerprint == r2.fingerprint
    assert r1.to_csv() == r2.to_csv()
    assert r1.to_json() == r2.to_json()
    # the worker-count option is gone: the key is unknown now
    with pytest.raises(ValidationError):
        run_config(dict(cfg, workers=3))


def test_workers_config_key_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_text("kind = randgrp-moment\nh = C3\nn_min = 1\nworkers = 2\n")
    assert main(["run", str(path)]) == EXIT_VALIDATION


@pytest.mark.parametrize("name, text", [
    ("cfg.ini", "kind = orbits\ngroup = S3\nn = 3\ncache_dir = cache\n"),
    ("cfg.json", '{"kind": "orbits", "group": "S3", "n": 3, '
                 '"cache_dir": "cache"}'),
])
def test_cache_dir_config_key_exits_3(name, text, tmp_path, capsys):
    """The cover cache is gone: its key is unknown in a config file, and
    its flag is refused by the parser."""
    path = tmp_path / name
    path.write_text(text)
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert "cache_dir" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["orbits", "--group", "S3", "--n", "3",
                                   "--cache-dir", str(tmp_path)])
    assert not (tmp_path / "cache").exists()


def test_randgrp_measure_needs_gamma_of_order_2(capsys):
    assert main(["randgrp", "measure", "--gamma", "C3", "--h", "C7",
                 "--n-min", "1", "--n-max", "1"]) == EXIT_VALIDATION
    assert main(["randgrp", "measure", "--gamma", "C2", "--h", "C7",
                 "--n-min", "1", "--n-max", "1"]) == EXIT_OK


@pytest.mark.parametrize("h, exponent", [("C3", 5), ("C9", 3), ("C5", 9)])
def test_randgrp_measure_outside_the_variety_is_zero(h, exponent, tmp_path):
    out = tmp_path / "mu.json"
    assert main(["randgrp", "measure", "--h", h, "--exponent", str(exponent),
                 "--n-min", "1", "--n-max", "2", "--out", str(out),
                 "--format", "json"]) == EXIT_OK
    assert json.loads(out.read_text())["rows"] == [[1, "0/1"], [2, "0/1"]]


def test_run_config_cli(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "predict-moment", "h": "C3",
                                "gamma": "inversion", "gamma_inf": "full"}))
    out = tmp_path / "r.json"
    rc = main(["run", str(path), "--out", str(out), "--format", "json"])
    assert rc == EXIT_OK
    data = json.loads(out.read_text())
    assert data["rows"] == [["limit", "1/1"]]
    assert "fingerprint" in data


def test_verify_unknown_suite():
    assert main(["verify", "bogus"]) == EXIT_VALIDATION


def test_arith_ff_moment_cli(tmp_path):
    out = tmp_path / "ff.csv"
    rc = main(["arith", "ff-moment", "--q", "3", "--dmax", "3", "--H", "5",
               "--seed", "1", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    header = lines.index("degree,fields,excluded,sur_sum,running_average,"
                         "prediction,se_proxy")
    # 36 imaginary models of degree 3 over F_3, average 2/3 against 1
    assert lines[header + 1].startswith("3,36,0,24,2/3,1/1,")


def test_ff_moment_model_cap_exits_at_once(capsys):
    """q = 7, d_max = 7 would walk 1.44 million models: refused before the
    first one, while q = 7, d_max = 5 (29,400 models) is under the cap."""
    t0 = time.perf_counter()
    rc = main(["arith", "ff-moment", "--q", "7", "--dmax", "7", "--H", "3",
               "--seed", "1"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == EXIT_CAPACITY == 2
    assert "capacity error: ff-moment: 1441188 models" in \
        capsys.readouterr().err
    assert count_imaginary(7, 3) + count_imaginary(7, 5) == 29_400
    assert 29_400 <= FF_MODEL_CAP


def test_verify_ff_moment_detail_has_no_run_time(capsys):
    # the detail is part of the fingerprinted report, so the run time, which
    # changes from run to run, goes to stderr instead
    from hurwitzlab.verify import suite_ff_moment
    first = suite_ff_moment(quick=True)[0]
    assert first.passed
    assert re.fullmatch(r"average=\d+\.\d{4} prediction=1", first.detail)
    assert "took" in capsys.readouterr().err
