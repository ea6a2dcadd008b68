"""Experiment orchestration: subcommands over all modules, config files,
reproducible seeds, and machine-readable reports.

Exit codes: 0 success, 2 capacity, 3 validation, 4 internal invariant
violation.  Reports are byte-identical for identical (config, seed,
version); wall-clock time is printed to the console only, never into the
report payload.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .abelian import AbelianStructure
from .errors import CapacityError, InternalCheckError, ValidationError
from .groups import (FiniteGroup, GammaGroup, alternating4, cyclic, dicyclic,
                     dihedral, inversion_action, parse_group_file, symmetric,
                     trivial_action)

EXIT_OK = 0
EXIT_CAPACITY = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4

KNOWN_KEYS = {
    "kind", "group", "c", "g_inf", "n", "n_min", "n_max", "q", "h", "gamma",
    "gamma_inf", "exponent", "trials", "seed", "out", "format",
    "dmax", "target", "mode", "suite", "quick", "m_min", "m_max", "tolerance",
    "cache_dir",
}


# ---------------------------------------------------------------------------
# group / parameter parsing
# ---------------------------------------------------------------------------

def resolve_group(spec: str) -> FiniteGroup:
    """Builtin group names (C9, D5, S3, Q8, A4, C3xC3, ...) or @file."""
    spec = spec.strip()
    if spec.startswith("@"):
        obj = parse_group_file(Path(spec[1:]).read_text())
        if isinstance(obj, GammaGroup):
            return obj.base
        return obj
    parts = spec.split("x")
    if len(parts) > 1:
        out = resolve_group(parts[0])
        from .groups import direct_product
        for p in parts[1:]:
            out = direct_product(out, resolve_group(p))
        return out
    if spec == "A4":
        return alternating4()
    kind, num = spec[0].upper(), spec[1:]
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


def resolve_c(group: FiniteGroup, spec: str) -> list:
    spec = spec.strip()
    if spec == "all":
        return list(range(1, group.order))
    if spec == "involutions":
        return [g for g in range(1, group.order) if group.element_order(g) == 2]
    if spec.startswith("order:"):
        k = int(spec.split(":")[1])
        return [g for g in range(1, group.order) if group.element_order(g) == k]
    if spec.startswith("class-of:"):
        x = int(spec.split(":")[1])
        cc = group.conjugacy_classes()
        out = set()
        for k in range(1, group.element_order(x) + 1):
            if math.gcd(k, group.element_order(x)) == 1:
                out.update(cc.members[cc.class_of[group.power(x, k)]])
        return sorted(out)
    return [int(x) for x in spec.replace(",", " ").split()]


def resolve_g_inf(group: FiniteGroup, spec: str, c: list) -> int:
    spec = spec.strip()
    if spec == "auto":
        return min(c)
    if spec == "involution":
        return next(g for g in sorted(c) if group.element_order(g) == 2)
    return int(spec)


def resolve_gamma_group(hspec: str, gamma_spec: str) -> GammaGroup:
    base = resolve_group(hspec)
    gamma_spec = gamma_spec.strip()
    if gamma_spec == "inversion":
        return inversion_action(base)
    if gamma_spec.startswith("trivial:"):
        return trivial_action(base, resolve_group(gamma_spec.split(":")[1]))
    if gamma_spec.startswith("@"):
        obj = parse_group_file(Path(gamma_spec[1:]).read_text())
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
    gens = [int(x) for x in spec.replace(",", " ").split()]
    return list(gamma.subgroup_closure(gens))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Report:
    def __init__(self, config: dict, rows: list, columns: list):
        # where the cover cache lives does not change the result
        self.config = {k: config[k] for k in sorted(config) if k != "cache_dir"}
        self.version = __version__
        self.rows = rows
        self.columns = columns
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
        lines = ["# config: " + json.dumps(self.config, sort_keys=True)]
        lines.append("# version: " + self.version)
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(str(x) for x in row))
        lines.append("# fingerprint: " + self.fingerprint)
        return "\n".join(lines) + "\n"

    def write(self, out: str | None, fmt: str) -> None:
        text = self.to_json() if fmt == "json" else self.to_csv()
        if out:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)


def _fr(x: Fraction) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def run_orbits(cfg: dict) -> Report:
    from .homology import build_u
    from .hurwitz import orbits
    group = resolve_group(cfg["group"])
    c = resolve_c(group, cfg.get("c", "all"))
    g_inf = resolve_g_inf(group, cfg.get("g_inf", "auto"), c)
    n = int(cfg["n"])
    ctx = build_u(group, c, cache_dir=cfg.get("cache_dir"))
    orbs = orbits(group, c, g_inf, n, ctx=ctx)
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
    from .frob import fixed_counts, predicted_hur_count
    from .homology import build_u
    group = resolve_group(cfg["group"])
    c = resolve_c(group, cfg.get("c", "all"))
    g_inf = resolve_g_inf(group, cfg.get("g_inf", "auto"), c)
    q = int(cfg["q"])
    n_min = int(cfg.get("n_min", cfg.get("n", 2)))
    n_max = int(cfg.get("n_max", cfg.get("n", 2)))
    ctx = build_u(group, c, cache_dir=cfg.get("cache_dir"))
    ginf_members = group.subgroup_closure([g_inf])
    rows = []
    for n in range(n_min, n_max + 1):
        pc = predicted_hur_count(ctx, ginf_members, q, n)
        fc = fixed_counts(ctx, ginf_members, q, n)
        refinement = ";".join(
            f"{'|'.join(map(str, h)) if h else '0'}:{cnt}"
            for h, cnt in fc.refinement)
        rows.append([n, fc.b, fc.d, refinement or "-", pc.pi, pc.main_term,
                     pc.error_class])
    return Report(cfg, rows, ["n", "b", "d", "refinement", "pi", "main_term",
                              "error"])


def run_predict_moment(cfg: dict) -> Report:
    from .frob import moment_prediction
    h = resolve_gamma_group(cfg["h"], cfg.get("gamma", "inversion"))
    ginf = resolve_gamma_inf(h.gamma, cfg.get("gamma_inf", "full"))
    rows = []
    if "q" in cfg and str(cfg["q"]) != "limit":
        q = int(cfg["q"])
        rows.append([str(q), _fr(moment_prediction(h, ginf, q))])
    else:
        rows.append(["limit", _fr(moment_prediction(h, ginf, None))])
    return Report(cfg, rows, ["q", "moment"])


def run_randgrp_sample(cfg: dict) -> Report:
    from .randgrp import FreeAdmissible, abelian_exponent_variety, monte_carlo
    gamma = resolve_group(cfg.get("gamma", "C2"))
    spec = abelian_exponent_variety(gamma, int(cfg.get("exponent", 3)))
    free = FreeAdmissible(int(cfg["n"]), spec)
    ginf = resolve_gamma_inf(gamma, cfg.get("gamma_inf", "full"))
    trials = int(cfg["trials"])
    seed = int(cfg["seed"])
    rep = monte_carlo(free, ginf, trials, seed)
    rows = []
    for label, cnt in sorted(rep.counts.items(), key=lambda kv: str(kv[0])):
        rows.append([json.dumps(label), cnt])
    return Report(cfg, rows, ["iso_class", "count"])


def run_randgrp_measure(cfg: dict) -> Report:
    from .randgrp import abelian_exponent_variety, mu_n
    gamma = resolve_group(cfg.get("gamma", "C2"))
    if gamma.order != 2:
        raise ValidationError(
            "randgrp measure takes H with the inversion action, so Gamma "
            f"must have order 2; got order {gamma.order}")
    spec = abelian_exponent_variety(gamma, int(cfg.get("exponent", 3)))
    h = resolve_gamma_group(cfg["h"], "inversion")
    ginf = resolve_gamma_inf(gamma, cfg.get("gamma_inf", "full"))
    rows = []
    for n in range(int(cfg.get("n_min", cfg.get("n", 1))),
                   int(cfg.get("n_max", cfg.get("n", 1))) + 1):
        rows.append([n, _fr(mu_n(h, spec, ginf, n))])
    return Report(cfg, rows, ["n", "mu_n"])


def run_randgrp_moment(cfg: dict) -> Report:
    from .randgrp import moment_mu, moment_n
    h = resolve_gamma_group(cfg["h"], cfg.get("gamma", "inversion"))
    ginf = resolve_gamma_inf(h.gamma, cfg.get("gamma_inf", "full"))
    rows = []
    for n in range(int(cfg.get("n_min", cfg.get("n", 1))),
                   int(cfg.get("n_max", cfg.get("n", 1))) + 1):
        rows.append([n, _fr(moment_n(h, ginf, n)), _fr(moment_mu(h, ginf))])
    return Report(cfg, rows, ["n", "moment_n", "moment_limit"])


def run_ff_moment(cfg: dict) -> Report:
    from .arith import empirical_moment
    q = int(cfg["q"])
    dmax = int(cfg["dmax"])
    target = [int(x) for x in str(cfg.get("target", cfg.get("h", "5"))).replace(
        ",", " ").split()]
    mode = cfg.get("mode", "plain")
    seed = int(cfg.get("seed", 0))
    rep = empirical_moment(q, dmax, target, mode=mode, seed=seed)
    rows = []
    for r in rep.rows:
        rows.append([r.degree, r.fields, r.excluded, str(r.sur_sum),
                     _fr(r.cumulative_average), _fr(r.prediction),
                     f"{r.se_proxy:.6f}"])
    return Report(cfg, rows, ["degree", "fields", "excluded", "sur_sum",
                              "running_average", "prediction", "se_proxy"])


def run_nf_moment(cfg: dict) -> Report:
    from .arith import nf_class_group
    from .ntheory import factorize
    dmax = int(cfg["dmax"])
    target = [int(x) for x in str(cfg.get("target", cfg.get("h", "3"))).replace(
        ",", " ").split()]
    H = AbelianStructure.from_cyclic_orders(target)
    total = Fraction(0)
    count = 0
    rows = []
    last_d = None
    for d in range(1, dmax + 1):
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
    suite = cfg.get("suite", "all")
    quick = str(cfg.get("quick", "false")).lower() in ("1", "true", "yes")
    results = run_suite(suite, quick=quick)
    rows = [[r.suite, r.name, "pass" if r.passed else "FAIL", r.detail]
            for r in results]
    if not all(r.passed for r in results):
        rep = Report(cfg, rows, ["suite", "check", "status", "detail"])
        rep.failed = True
        return rep
    return Report(cfg, rows, ["suite", "check", "status", "detail"])


KINDS = {
    "orbits": run_orbits,
    "invariants": run_orbits,
    "frob-count": run_frob_count,
    "predict-moment": run_predict_moment,
    "randgrp-sample": run_randgrp_sample,
    "randgrp-measure": run_randgrp_measure,
    "randgrp-moment": run_randgrp_moment,
    "arith-ff-moment": run_ff_moment,
    "arith-nf-moment": run_nf_moment,
    "verify": run_verify,
}


def run_config(cfg: dict) -> Report:
    unknown = set(cfg) - KNOWN_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ValidationError(
            f"unknown experiment kind {kind!r}; expected one of {sorted(KINDS)}")
    if kind in ("randgrp-sample", "arith-ff-moment") and "seed" not in cfg:
        raise ValidationError("randomized experiments require an explicit seed")
    return KINDS[kind](cfg)


def load_config(path: str) -> dict:
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValidationError("JSON config must be an object")
        return {str(k): obj[k] for k in obj}
    parser = configparser.ConfigParser()
    parser.read_string("[experiment]\n" + text if not stripped.startswith("[")
                       else text)
    out: dict = {}
    for section in parser.sections():
        for k, v in parser.items(section):
            key = k if section == "experiment" else f"{section}.{k}"
            out[key] = v
    return out


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", default="csv", choices=["csv", "json"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hurwitzlab",
        description="Exact-arithmetic laboratory for braid orbits, lifting "
                    "invariants, random Gamma-groups, and class-group "
                    "statistics")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", aliases=["invariants"],
                       help="braid orbits with invariants")
    p.add_argument("--group", required=True)
    p.add_argument("--c", default="all")
    p.add_argument("--g-inf", dest="g_inf", default="auto")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cache-dir", dest="cache_dir", default=None)
    _add_common(p)

    p = sub.add_parser("frob-count", help="Frobenius-fixed component counts")
    p.add_argument("--group", required=True)
    p.add_argument("--c", default="all")
    p.add_argument("--g-inf", dest="g_inf", default="auto")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-min", dest="n_min", type=int, default=2)
    p.add_argument("--n-max", dest="n_max", type=int, default=6)
    p.add_argument("--cache-dir", dest="cache_dir", default=None)
    _add_common(p)

    p = sub.add_parser("predict-moment", help="moment predictions")
    p.add_argument("--h", required=True)
    p.add_argument("--gamma", default="inversion")
    p.add_argument("--gamma-inf", dest="gamma_inf", default="full")
    p.add_argument("--q", default="limit")
    _add_common(p)

    rg = sub.add_parser("randgrp", help="random group model")
    rgs = rg.add_subparsers(dest="subcommand", required=True)
    p = rgs.add_parser("sample")
    p.add_argument("--gamma", default="C2")
    p.add_argument("--exponent", type=int, default=3)
    p.add_argument("--gamma-inf", dest="gamma_inf", default="full")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)
    p = rgs.add_parser("measure")
    p.add_argument("--gamma", default="C2")
    p.add_argument("--exponent", type=int, default=3)
    p.add_argument("--gamma-inf", dest="gamma_inf", default="full")
    p.add_argument("--h", required=True)
    p.add_argument("--n-min", dest="n_min", type=int, default=1)
    p.add_argument("--n-max", dest="n_max", type=int, default=4)
    _add_common(p)
    p = rgs.add_parser("moment")
    p.add_argument("--h", required=True)
    p.add_argument("--gamma", default="inversion")
    p.add_argument("--gamma-inf", dest="gamma_inf", default="full")
    p.add_argument("--n-min", dest="n_min", type=int, default=1)
    p.add_argument("--n-max", dest="n_max", type=int, default=8)
    _add_common(p)

    ar = sub.add_parser("arith", help="class-group ground truth")
    ars = ar.add_subparsers(dest="subcommand", required=True)
    p = ars.add_parser("ff-moment")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--H", dest="target", required=True)
    p.add_argument("--mode", default="plain", choices=["plain", "gerth"])
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)
    p = ars.add_parser("nf-moment")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--H", dest="target", required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="acceptance suites")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--quick", action="store_true")
    _add_common(p)

    p = sub.add_parser("run", help="run a config file (INI or JSON)")
    p.add_argument("config")
    _add_common(p)
    return ap


def _namespace_to_config(ns) -> dict:
    cfg = {}
    cmd = ns.command
    if cmd == "randgrp":
        cfg["kind"] = f"randgrp-{ns.subcommand}"
    elif cmd == "arith":
        cfg["kind"] = {"ff-moment": "arith-ff-moment",
                       "nf-moment": "arith-nf-moment"}[ns.subcommand]
    else:
        cfg["kind"] = cmd
    for key, val in vars(ns).items():
        if key in ("command", "subcommand") or val is None:
            continue
        cfg[key] = val
    return cfg


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        if ns.command == "run":
            cfg = load_config(ns.config)
            for key in ("out", "format"):
                val = getattr(ns, key, None)
                if val is not None and key not in cfg:
                    cfg[key] = val
        else:
            cfg = _namespace_to_config(ns)
        out = cfg.pop("out", None)
        fmt = cfg.pop("format", "csv")
        t0 = time.time()
        report = run_config(cfg)
        elapsed = time.time() - t0
        report.write(out, fmt)
        print(f"# wall-clock {elapsed:.2f}s fingerprint {report.fingerprint}",
              file=sys.stderr)
        if getattr(report, "failed", False):
            return 1
        return EXIT_OK
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
