"""Golden report fingerprints: one quick CLI run per experiment kind.

The fingerprint hashes the config echo, the code version, the columns and
every row, so a match means the whole report is byte-identical.  The
expected values were recorded with `run_config` on the same configs before
the `workers` option was removed (`orbits-A4-order3` and
`randgrp-sample-trivial-ginf` before intmat's row reductions were merged
into one mod-m Smith engine, `predict-moment-C5xC5` before `h2` lost its
normal-Sylow reduction); a change that moves any exact result, or what the
config echo holds, moves one of them."""
import json

import pytest

from hurwitzlab.cli import EXIT_OK, main

GOLDEN = [
    (["orbits", "--group", "S3", "--c", "involutions", "--n", "4"],
     "53693e477ecefa07af141ad43499b1701cc72f7d0642c7fe82133a6f7ba65d12"),
    (["invariants", "--group", "S3", "--c", "involutions", "--n", "4"],
     "c16229d57574ba7f98f16df2ce3e716bba0574299fa4624d3ed65d01736578b1"),
    (["orbits", "--group", "D5", "--c", "all", "--g-inf", "involution",
      "--n", "5"],
     "848d970ba4b65ee9a30344538cf96bf03288ea23736fcb0a10dec6376df76f62"),
    (["frob-count", "--group", "D5", "--c", "involutions", "--q", "3",
      "--n-min", "2", "--n-max", "6"],
     "a61768c6358a1fbf99df159267f1e7e4cabc3457bdaa01fc85abdc6f247de5ef"),
    (["predict-moment", "--h", "C3", "--q", "7"],
     "f561974e63906ca821ebb294315ebe99d5d77a537b5f9a557d6835b3ccf4b297"),
    (["randgrp", "sample", "--n", "4", "--trials", "500", "--seed", "9"],
     "d360a826518eb33e21c7ea37db17a9d757d158adeef890222d3d2337080ce8a1"),
    (["randgrp", "measure", "--h", "C3xC3", "--gamma-inf", "trivial",
      "--n-min", "1", "--n-max", "3"],
     "9f7c7eda368b32dabe1c7134ee523fb047bcf61b5d2df464b0c01b71bca28877"),
    (["randgrp", "moment", "--h", "C3", "--n-min", "1", "--n-max", "3"],
     "de0b3cdd3807479e5cc78cadedb86784ebe09ca216d06cfa679f0430ce54d30e"),
    (["arith", "ff-moment", "--q", "3", "--dmax", "5", "--H", "5",
      "--seed", "1"],
     "f742e8fb188d27b8295008aa8065e2f838a7460eb96385af0aba9522b7f12189"),
    (["arith", "nf-moment", "--dmax", "300", "--H", "3"],
     "d8fd02c620adba68238b7d4b2413a689127bc359c76dccd27628583ff9e4b97a"),
    (["verify", "bridge"],
     "a48c9e3eb63fe93d1ffa06455639dab1ef214a7252057818ae4aba42f93f492b"),
]
IDS = ["-".join(w for w in a[:2] if w[0] != "-") for a, _ in GOLDEN]

# Named apart, because their first two words repeat earlier entries.
NAMED_GOLDEN = {
    # a nontrivial reduced multiplier: schur_cover, then reduce_cover
    "orbits-A4-order3": (
        ["orbits", "--group", "A4", "--c", "order:3", "--n", "4"],
        "a8bc12ece67cd5a170d6a4fbd75586768d65fd598473f7dc089c7cb58aaa9338"),
    # draws against the Gamma_inf-invariants (sample_invariant)
    "randgrp-sample-trivial-ginf": (
        ["randgrp", "sample", "--gamma-inf", "trivial", "--n", "3",
         "--trials", "300", "--seed", "1"],
        "7f0caeb144613677e8aa8c45997078a6fc0784d519d89aa45c62ab669a2e46bd"),
    # the README example: h2 of C5xC5:C2, of order 50
    "predict-moment-C5xC5": (
        ["predict-moment", "--h", "C5xC5", "--gamma", "inversion", "--q",
         "11"],
        "a37377683233ef80a99c41c113d6711e8706352135f506bd3c940385a97c12cf"),
}


def _fingerprint(argv, path) -> str:
    assert main(argv + ["--out", str(path), "--format", "json"]) == EXIT_OK
    return json.loads(path.read_text())["fingerprint"]


def _config_of(argv) -> dict:
    """The config file equivalent of `argv`, with only the keys it gives:
    the command words name the kind, `--H` is `target`, a value after no
    flag is `verify`'s suite."""
    words = 2 if argv[0] in ("randgrp", "arith") else 1
    cfg = {"kind": "-".join(argv[:words])}
    rest = argv[words:]
    while rest:
        if rest[0].startswith("--"):
            key = "target" if rest[0] == "--H" else rest[0][2:].replace("-", "_")
            cfg[key], rest = rest[1], rest[2:]
        else:
            cfg["suite"], rest = rest[0], rest[1:]
    return cfg


CASES = GOLDEN + list(NAMED_GOLDEN.values())
CASE_IDS = IDS + list(NAMED_GOLDEN)


@pytest.mark.parametrize("argv,expected", CASES, ids=CASE_IDS)
def test_golden_fingerprint(argv, expected, tmp_path, capsys):
    assert _fingerprint(argv, tmp_path / "report.json") == expected


@pytest.mark.parametrize("fmt", ["ini", "json"])
@pytest.mark.parametrize("argv,expected", CASES, ids=CASE_IDS)
def test_golden_fingerprint_from_config(argv, expected, fmt, tmp_path, capsys):
    # the same experiment from a config file: INI gives every value as a
    # string, JSON gives digit strings as numbers; both get the subcommand's
    # defaults, so the report is the subcommand's
    cfg = _config_of(argv)
    path = tmp_path / f"experiment.{fmt}"
    if fmt == "ini":
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    else:
        path.write_text(json.dumps({k: int(v) if v.isdigit() else v
                                    for k, v in cfg.items()}))
    assert _fingerprint(["run", str(path)], tmp_path / "report.json") \
        == expected

