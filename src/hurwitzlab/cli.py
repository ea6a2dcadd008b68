"""Experiment orchestration: subcommands over all modules, config files,
reproducible seeds, and machine-readable reports.

Each experiment kind declares its parameters once, in `KINDS`; the flags
and every config (command line, INI or JSON) go through that one table.

Exit codes: 0 success, 2 capacity, 3 validation, 4 internal invariant
violation.  Reports are byte-identical for identical (config, seed,
version); wall-clock time is printed to the console only, never into the
report payload.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .abelian import AbelianStructure
from .errors import CapacityError, InternalCheckError, ValidationError
from .groups import (FiniteGroup, GammaGroup, alternating4, cyclic, dicyclic,
                     dihedral, direct_product, inversion_action,
                     parse_group_file, symmetric, trivial_action)

EXIT_OK = 0
EXIT_CAPACITY = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4

REQUIRED = object()


class Param(NamedTuple):
    """Config key `name`, flag `--name-with-dashes` unless `flag` spells it
    otherwise (a flag without dashes is an optional positional)."""
    name: str
    type: type                    # str, int, or bool (a store_true flag)
    default: object = REQUIRED    # None: optional, absent from the config
    flag: str | None = None
    choices: tuple | None = None


class Kind(NamedTuple):
    run: Callable
    help: str | None              # None for a leaf of a command group
    params: tuple


# where and how the report is written, never part of the config echo
OUTPUT = (Param("out", str, None),
          Param("format", str, "csv", choices=("csv", "json")))


# ---------------------------------------------------------------------------
# group / parameter parsing
# ---------------------------------------------------------------------------

def resolve_group(spec: str) -> FiniteGroup:
    """Builtin group names (C9, D5, S3, Q8, A4, C3xC3, ...) or @file."""
    spec = spec.strip()
    if spec.startswith("@"):
        obj = _group_file(spec[1:])
        return obj.base if isinstance(obj, GammaGroup) else obj
    parts = spec.split("x")
    if len(parts) > 1:
        out = resolve_group(parts[0])
        for p in parts[1:]:
            out = direct_product(out, resolve_group(p))
        return out
    if spec == "A4":
        return alternating4()
    kind, num = spec[:1].upper(), spec[1:]
    if not num.isdigit():
        raise ValidationError(f"cannot parse group spec {spec!r}")
    k = int(num)
    if kind == "C":
        return cyclic(k)
    if kind == "D":
        return dihedral(k)
    if kind == "S":
        return symmetric(k)
    if kind == "Q":
        if k % 4:
            raise ValidationError("Q<n> needs n divisible by 4")
        return dicyclic(k // 4)
    raise ValidationError(f"unknown group spec {spec!r}")


def _group_file(path: str):
    """The group or Gamma-group in the group file at `path`."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read group file {path}: {e}") from None
    return parse_group_file(text)


def _int(spec: str, what: str, order: int | None = None) -> int:
    """`spec` as an integer; with `order`, as an element index of a group of
    that order."""
    try:
        x = int(spec)
    except ValueError:
        raise ValidationError(f"{what}: {spec!r} is not an integer") from None
    if order is not None and not 0 <= x < order:
        raise ValidationError(f"{what}: {x} is not in 0..{order - 1}")
    return x


def _ints(spec: str, what: str, order: int | None = None) -> list:
    return [_int(x, what, order) for x in spec.replace(",", " ").split()]


def resolve_c(group: FiniteGroup, spec: str) -> list:
    spec = spec.strip()
    if spec == "all":
        return list(range(1, group.order))
    if spec == "involutions":
        return [g for g in range(1, group.order) if group.element_order(g) == 2]
    if spec.startswith("order:"):
        k = _int(spec.split(":")[1], "c = order:k")
        return [g for g in range(1, group.order) if group.element_order(g) == k]
    if spec.startswith("class-of:"):
        x = _int(spec.split(":")[1], "c = class-of:x", group.order)
        cc = group.conjugacy_classes()
        out = set()
        for k in range(1, group.element_order(x) + 1):
            if math.gcd(k, group.element_order(x)) == 1:
                out.update(cc.members[cc.class_of[group.power(x, k)]])
        return sorted(out)
    return _ints(spec, "c", group.order)


def resolve_g_inf(group: FiniteGroup, spec: str, c: list) -> int:
    spec = spec.strip()
    if spec in ("auto", "involution"):
        pick = [g for g in sorted(c)
                if spec == "auto" or group.element_order(g) == 2]
        if not pick:
            raise ValidationError(f"g_inf = {spec} finds no element of c = {c}")
        return pick[0]
    return _int(spec, "g_inf", group.order)


def resolve_gamma_group(hspec: str, gamma_spec: str) -> GammaGroup:
    base = resolve_group(hspec)
    gamma_spec = gamma_spec.strip()
    if gamma_spec == "inversion":
        return inversion_action(base)
    if gamma_spec.startswith("trivial:"):
        return trivial_action(base, resolve_group(gamma_spec.split(":")[1]))
    if gamma_spec.startswith("@"):
        obj = _group_file(gamma_spec[1:])
        if not isinstance(obj, GammaGroup):
            raise ValidationError("file does not define a gamma action")
        return obj
    raise ValidationError(f"unknown gamma spec {gamma_spec!r}")


def resolve_gamma_inf(gamma: FiniteGroup, spec: str) -> list:
    spec = spec.strip()
    if spec in ("full", "gamma"):
        return list(range(gamma.order))
    if spec in ("trivial", "1"):
        return [0]
    return list(gamma.subgroup_closure(_ints(spec, "gamma_inf", gamma.order)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Report:
    def __init__(self, config: dict, rows: list, columns: list):
        self.config = {k: config[k] for k in sorted(config)}
        self.version = __version__
        self.rows = rows
        self.columns = columns
        self.failed = False
        payload = json.dumps({"config": self.config, "version": self.version,
                              "columns": columns, "rows": rows},
                             sort_keys=True, separators=(",", ":"))
        self.fingerprint = hashlib.sha256(payload.encode()).hexdigest()

    def to_json(self) -> str:
        return json.dumps({"config": self.config, "version": self.version,
                           "columns": self.columns, "rows": self.rows,
                           "fingerprint": self.fingerprint},
                          sort_keys=True, indent=1) + "\n"

    def to_csv(self) -> str:
        """The rows as CSV (a field holding a comma or quote is quoted)
        between `#` comment lines for the config, version and fingerprint."""
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(self.config, sort_keys=True)
                  + "\n# version: " + self.version + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows([str(x) for x in row] for row in self.rows)
        buf.write("# fingerprint: " + self.fingerprint + "\n")
        return buf.getvalue()

    def write(self, out: str | None, fmt: str) -> None:
        text = self.to_json() if fmt == "json" else self.to_csv()
        if out:
            try:
                Path(out).write_text(text)
            except OSError as e:
                raise ValidationError(f"cannot write report {out}: {e}") \
                    from None
        else:
            sys.stdout.write(text)


def _fr(x: Fraction) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# experiment kinds: each reads its normalised config (see KINDS)
# ---------------------------------------------------------------------------

def run_orbits(cfg: dict) -> Report:
    from .homology import build_u
    from .hurwitz import orbits
    group = resolve_group(cfg["group"])
    c = resolve_c(group, cfg["c"])
    g_inf = resolve_g_inf(group, cfg["g_inf"], c)
    ctx = build_u(group, c)
    orbs = orbits(group, c, g_inf, cfg["n"], ctx=ctx)
    rows = []
    for i, o in enumerate(orbs):
        rows.append([i, "-".join(str(x) for x in o.representative.entries),
                     o.size,
                     ";".join(str(x) for x in o.invariant.h),
                     ";".join(str(x) for x in o.invariant.v),
                     ";".join(str(x) for x in o.shape)])
    return Report(cfg, rows, ["orbit", "representative", "size",
                              "invariant_torsion", "invariant_vector", "shape"])


def run_frob_count(cfg: dict) -> Report:
    from .frob import _predicted_from, fixed_counts
    from .homology import build_u
    group = resolve_group(cfg["group"])
    c = resolve_c(group, cfg["c"])
    g_inf = resolve_g_inf(group, cfg["g_inf"], c)
    q = cfg["q"]
    ctx = build_u(group, c)
    ginf_members = group.subgroup_closure([g_inf])
    rows = []
    for n in range(cfg["n_min"], cfg["n_max"] + 1):
        fc = fixed_counts(ctx, ginf_members, q, n)
        pc = _predicted_from(ctx, ginf_members, fc)
        refinement = ";".join(
            f"{'|'.join(map(str, h)) if h else '0'}:{cnt}"
            for h, cnt in fc.refinement)
        rows.append([n, fc.b, fc.d, refinement or "-", pc.pi, pc.main_term,
                     pc.error_class])
    return Report(cfg, rows, ["n", "b", "d", "refinement", "pi", "main_term",
                              "error"])


def run_predict_moment(cfg: dict) -> Report:
    from .frob import moment_prediction
    h = resolve_gamma_group(cfg["h"], cfg["gamma"])
    ginf = resolve_gamma_inf(h.gamma, cfg["gamma_inf"])
    q = None if cfg["q"] == "limit" else _int(cfg["q"], "q")
    rows = [["limit" if q is None else str(q),
             _fr(moment_prediction(h, ginf, q))]]
    return Report(cfg, rows, ["q", "moment"])


def run_randgrp_sample(cfg: dict) -> Report:
    from .randgrp import FreeAdmissible, abelian_exponent_variety, monte_carlo
    gamma = resolve_group(cfg["gamma"])
    spec = abelian_exponent_variety(gamma, cfg["exponent"])
    free = FreeAdmissible(cfg["n"], spec)
    ginf = resolve_gamma_inf(gamma, cfg["gamma_inf"])
    rep = monte_carlo(free, ginf, cfg["trials"], cfg["seed"])
    rows = [[json.dumps(label), cnt] for label, cnt in
            sorted(rep.counts.items(), key=lambda kv: str(kv[0]))]
    return Report(cfg, rows, ["iso_class", "count"])


def run_randgrp_measure(cfg: dict) -> Report:
    from .randgrp import abelian_exponent_variety, mu_n
    gamma = resolve_group(cfg["gamma"])
    if gamma.order != 2:
        raise ValidationError(
            "randgrp measure takes H with the inversion action, so Gamma "
            f"must have order 2; got order {gamma.order}")
    spec = abelian_exponent_variety(gamma, cfg["exponent"])
    h = resolve_gamma_group(cfg["h"], "inversion")
    ginf = resolve_gamma_inf(gamma, cfg["gamma_inf"])
    rows = [[n, _fr(mu_n(h, spec, ginf, n))]
            for n in range(cfg["n_min"], cfg["n_max"] + 1)]
    return Report(cfg, rows, ["n", "mu_n"])


def run_randgrp_moment(cfg: dict) -> Report:
    from .randgrp import moment_mu, moment_n
    h = resolve_gamma_group(cfg["h"], cfg["gamma"])
    ginf = resolve_gamma_inf(h.gamma, cfg["gamma_inf"])
    rows = [[n, _fr(moment_n(h, ginf, n)), _fr(moment_mu(h, ginf))]
            for n in range(cfg["n_min"], cfg["n_max"] + 1)]
    return Report(cfg, rows, ["n", "moment_n", "moment_limit"])


def run_ff_moment(cfg: dict) -> Report:
    from .arith import empirical_moment
    target = _ints(cfg["target"], "target")
    rep = empirical_moment(cfg["q"], cfg["dmax"], target, mode=cfg["mode"],
                           seed=cfg["seed"])
    rows = [[r.degree, r.fields, r.excluded, str(r.sur_sum),
             _fr(r.cumulative_average), _fr(r.prediction), f"{r.se_proxy:.6f}"]
            for r in rep.rows]
    return Report(cfg, rows, ["degree", "fields", "excluded", "sur_sum",
                              "running_average", "prediction", "se_proxy"])


def run_nf_moment(cfg: dict) -> Report:
    from .arith import nf_class_group
    from .ntheory import factorize
    H = AbelianStructure.from_cyclic_orders(_ints(cfg["target"], "target"))
    total = Fraction(0)
    count = 0
    rows = []
    last_d = None
    for d in range(1, cfg["dmax"] + 1):
        if any(e > 1 for e in factorize(d).values()):
            continue   # not squarefree
        cg = nf_class_group(d)
        count += 1
        last_d = d
        total += cg.structure.sur_count(H)
        if count % 50 == 0:
            rows.append([d, count, _fr(total / count)])
    if count and (not rows or rows[-1][0] != last_d):
        rows.append([last_d, count, _fr(total / count)])
    return Report(cfg, rows, ["d", "fields", "running_average"])


def run_verify(cfg: dict) -> Report:
    from .verify import run_suite
    results = run_suite(cfg["suite"], quick=cfg["quick"])
    rows = [[r.suite, r.name, "pass" if r.passed else "FAIL", r.detail]
            for r in results]
    rep = Report(cfg, rows, ["suite", "check", "status", "detail"])
    rep.failed = not all(r.passed for r in results)
    return rep


# ---------------------------------------------------------------------------
# the parameter table
# ---------------------------------------------------------------------------

_GROUP_C = (Param("group", str), Param("c", str, "all"),
            Param("g_inf", str, "auto"))

# A kind "<group>-<leaf>" with <group> in GROUPS is `hurwitzlab <group> <leaf>`.
KINDS = {
    "orbits": Kind(run_orbits, "braid orbits with invariants", (
        *_GROUP_C, Param("n", int))),
    "frob-count": Kind(run_frob_count, "Frobenius-fixed component counts", (
        *_GROUP_C, Param("q", int), Param("n_min", int, 2),
        Param("n_max", int, 6))),
    # q stays a string: "limit" or a prime power
    "predict-moment": Kind(run_predict_moment, "moment predictions", (
        Param("h", str), Param("gamma", str, "inversion"),
        Param("gamma_inf", str, "full"), Param("q", str, "limit"))),
    "randgrp-sample": Kind(run_randgrp_sample, None, (
        Param("gamma", str, "C2"), Param("exponent", int, 3),
        Param("gamma_inf", str, "full"), Param("n", int),
        Param("trials", int), Param("seed", int))),
    "randgrp-measure": Kind(run_randgrp_measure, None, (
        Param("gamma", str, "C2"), Param("exponent", int, 3),
        Param("gamma_inf", str, "full"), Param("h", str),
        Param("n_min", int, 1), Param("n_max", int, 4))),
    "randgrp-moment": Kind(run_randgrp_moment, None, (
        Param("h", str), Param("gamma", str, "inversion"),
        Param("gamma_inf", str, "full"), Param("n_min", int, 1),
        Param("n_max", int, 8))),
    "arith-ff-moment": Kind(run_ff_moment, None, (
        Param("q", int), Param("dmax", int), Param("target", str, flag="--H"),
        Param("mode", str, "plain", choices=("plain", "gerth")),
        Param("seed", int))),
    "arith-nf-moment": Kind(run_nf_moment, None, (
        Param("dmax", int), Param("target", str, flag="--H"))),
    "verify": Kind(run_verify, "acceptance suites", (
        Param("suite", str, "all", flag="suite"), Param("quick", bool, False))),
}
GROUPS = {"randgrp": "random group model", "arith": "class-group ground truth"}
# the echo keeps the name the run was started under
ALIASES = {"invariants": "orbits"}


def _typed(params: tuple, values: dict) -> dict:
    """`values` checked against `params`: every key known, every required
    key present, every value converted to its type (INI gives strings, JSON
    gives typed values), defaults filled in and None values dropped."""
    unknown = set(values) - {p.name for p in params}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for p in params:
        val = p.default if values.get(p.name) is None else values[p.name]
        if val is REQUIRED:
            raise ValidationError(f"missing required config key {p.name!r}")
        if val is None:
            continue
        if p.type is int and isinstance(val, str):
            val = _int(val, p.name)
        elif p.type is bool and isinstance(val, str):
            val = configparser.ConfigParser.BOOLEAN_STATES.get(
                val.strip().lower(), val)
        elif p.type is str and type(val) is int:
            val = str(val)
        if type(val) is not p.type or val not in (p.choices or [val]):
            raise ValidationError(f"{p.name}: {val!r} is not "
                                  f"{p.choices or p.type.__name__}")
        out[p.name] = val
    return out


def normalize_config(cfg: dict) -> dict:
    """The config a run of `cfg` echoes: its kind and that kind's typed
    parameters, defaults included (see `_typed`)."""
    kind = cfg.get("kind")
    if not isinstance(kind, str) or ALIASES.get(kind, kind) not in KINDS:
        raise ValidationError(f"unknown experiment kind {kind!r}; expected "
                              f"one of {sorted([*KINDS, *ALIASES])}")
    rest = {k: v for k, v in cfg.items() if k != "kind"}
    return {"kind": kind, **_typed(KINDS[ALIASES.get(kind, kind)].params, rest)}


def run_config(cfg: dict) -> Report:
    cfg = normalize_config(cfg)
    return KINDS[ALIASES.get(cfg["kind"], cfg["kind"])].run(cfg)


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read config {path}: {e}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"malformed JSON config: {e}") from None
        if not isinstance(obj, dict):
            raise ValidationError("JSON config must be an object")
        return obj
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text if stripped.startswith("[")
                           else "[experiment]\n" + text)
    except configparser.Error as e:
        raise ValidationError(f"malformed INI config: {e}") from None
    if parser.sections() != ["experiment"]:
        raise ValidationError("an INI config has one section, [experiment]")
    return dict(parser["experiment"])


# ---------------------------------------------------------------------------
# argparse front end, generated from the parameter table
# ---------------------------------------------------------------------------

def _add_param(parser, p: Param) -> None:
    # defaults stay in the table: an absent flag is None, filled in by _typed
    kw = {"choices": p.choices} if p.choices else {}
    if p.type is bool:
        kw["action"] = "store_true"
    elif p.type is int:
        kw["type"] = int
    flag = p.flag or "--" + p.name.replace("_", "-")
    if flag.startswith("-"):
        kw.update(dest=p.name, required=p.default is REQUIRED)
    else:
        kw["nargs"] = "?"
    parser.add_argument(flag, **kw)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hurwitzlab",
        description="Exact-arithmetic laboratory for braid orbits, lifting "
                    "invariants, random Gamma-groups, and class-group "
                    "statistics")
    sub = ap.add_subparsers(dest="command", required=True)
    groups = {}
    for kind, spec in KINDS.items():
        group, _, leaf = kind.partition("-")
        if group in GROUPS:
            if group not in groups:
                groups[group] = sub.add_parser(group, help=GROUPS[group]) \
                    .add_subparsers(dest="subcommand", required=True)
            p = groups[group].add_parser(leaf)
        else:
            p = sub.add_parser(kind, help=spec.help, aliases=[
                a for a, k in ALIASES.items() if k == kind])
        for param in spec.params + OUTPUT:
            _add_param(p, param)
    p = sub.add_parser("run", help="run a config file (INI or JSON)")
    p.add_argument("config")
    for param in OUTPUT:
        _add_param(p, param)
    return ap


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    try:
        if args["command"] == "run":
            cfg = load_config(args["config"])
        else:
            kind = "-".join(args.pop(k) for k in ("command", "subcommand")
                            if k in args)
            cfg = dict(args, kind=kind)
        # out and format: a config file's own values win over the flags
        output = _typed(OUTPUT, {p.name: cfg.pop(p.name, args[p.name])
                                 for p in OUTPUT})
        out = output.get("out")
        # refused before the run, whose work a missing directory would waste
        if out and not Path(out).parent.is_dir():
            raise ValidationError(f"cannot write report {out}: no such dir")
        t0 = time.time()
        report = run_config(cfg)
        elapsed = time.time() - t0
        report.write(out, output["format"])
        print(f"# wall-clock {elapsed:.2f}s fingerprint {report.fingerprint}",
              file=sys.stderr)
        return 1 if report.failed else EXIT_OK
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except InternalCheckError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
