"""Command-line front end: generation, extraction, verification, paths,
seeded experiment sweeps, DOT export.

Exit codes: 0 success, 2 a construction or verification ran correctly
but failed its certificate, 1 usage or I/O trouble.  Rationals on the
command line are always ``p/q`` text, never floats.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction

from .build import build_dense_minor, build_dense_minor_bipartite
from .connectivity import vertex_connectivity
from .errors import (
    InvalidBipartitionError,
    MinorforgeError,
    NotAnEdgeError,
    OrderTooSmallError,
    ParseError,
    UnknownVertexError,
)
from .extract import (
    dense_connected_minor,
    k_connected_subgraph,
    mader_min_degree_minor,
)
from .graph import (
    Graph,
    average_degree,
    complete_graph,
    is_eps_t_dense,
    random_bipartite,
    random_graph,
)
from .graphio import (
    dump_report,
    format_fraction,
    make_report,
    parse_fraction,
    parse_graph,
    parse_model,
    serialize_graph,
    serialize_model,
    to_dot,
)
from .model import MinorModel, validate_model
from .params import DEFAULT_C_SCALE, DEFAULT_MAX_ATTEMPTS, DENSE_EPS_BOUND, sqrt_log_inv
from .paths import PathFamily, Separation, find_linkage, menger
from .rng import Rng, derive_seed

__all__ = ["main"]


# -- flag parsing helpers ----------------------------------------------------


def _rational(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _vertex_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _pair_list(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    try:
        for item in text.split(","):
            if not item:
                continue
            a, b = item.split(":")
            pairs.append((int(a), int(b)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected u:v,u:v pairs, got {text!r}"
        ) from None
    return tuple(pairs)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _render(fields: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(fields, indent=2, sort_keys=True) + "\n"
    lines = []
    for key, value in fields.items():
        if key == "fragments":
            lines += [f"fragment {i}: {' '.join(map(str, frag))}" for i, frag in enumerate(value)]
        elif key == "paths":
            lines += ["path: " + " ".join(map(str, p)) for p in value]
        else:
            lines.append(f"{key}: {value}")
    return "".join(line + "\n" for line in lines)


def _density_fields(pattern: Graph) -> dict:
    """Missing edges and edge density of a pattern of order at least 2."""
    pairs = pattern.n * (pattern.n - 1) // 2
    return {
        "nonedges": pairs - pattern.m,
        "density": format_fraction(Fraction(pattern.m, pairs)),
    }


# -- subcommands -------------------------------------------------------------


def _cmd_gen(args) -> int:
    modes = sum(
        x is not None for x in (args.n, args.complete, args.bipartite)
    )
    if modes != 1:
        return _usage("pick exactly one of --n, --complete, --bipartite")
    p = args.p if args.p is not None else Fraction(1, 2)
    if not 0 <= p <= 1:
        return _usage("--p must lie in [0,1]")
    side = None
    if args.complete is not None:
        if args.complete < 0:
            return _usage("--complete must be nonnegative")
        g = complete_graph(args.complete)
    elif args.bipartite is not None:
        a, b = args.bipartite
        if a < 0 or b < 0:
            return _usage("side sizes must be nonnegative")
        g = random_bipartite(a, b, p, Rng(args.seed))
        side = a
    else:
        if args.n < 0:
            return _usage("--n must be nonnegative")
        g = random_graph(args.n, p, Rng(args.seed))
    _emit(serialize_graph(g, side), args.out)
    return 0


def _pattern_summary(model: MinorModel) -> dict:
    pattern = model.pattern
    fields: dict = {
        "result": "ok",
        "fragments_count": len(model.fragments),
        "pattern_order": pattern.n,
        "pattern_edges": pattern.m,
        "pattern_min_degree": pattern.min_degree() if pattern.n else 0,
    }
    if pattern.n >= 2:
        fields.update(_density_fields(pattern))
    return fields


def _dense_minor(g: Graph, side: int | None, eps: Fraction, t: int,
                 c_scale: Fraction, seed: int, attempts: int) -> MinorModel:
    """The (eps, t)-dense minor built in g, taken as bipartite with side A
    ``0..side-1`` when side is given."""
    if side is None:
        return build_dense_minor(g, eps, t, c_scale, Rng(seed), max_attempts=attempts)
    return build_dense_minor_bipartite(
        g, range(side), range(side, g.n), eps, t, c_scale, Rng(seed), max_attempts=attempts
    )


_NEEDS = {
    "mader": ("d",), "dense-connected": ("d",), "kconn": ("k",),
    "dense-minor": ("eps", "t"), "dense-minor-bipartite": ("eps", "t"),
}


def _cmd_extract(args) -> int:
    if args.attempts < 1:
        return _usage("--attempts must be at least 1")
    g, side = parse_graph(_read(args.graph))
    mode = args.mode
    if any(getattr(args, flag) is None for flag in _NEEDS[mode]):
        return _usage(f"extract {mode} needs " + " and ".join(f"--{f}" for f in _NEEDS[mode]))
    bipartite = mode == "dense-minor-bipartite"
    if bipartite and side is None:
        return _usage("input graph lacks a bipartition header")
    if mode == "kconn":
        verts = k_connected_subgraph(g, args.k)
        model = MinorModel(g, [frozenset((v,)) for v in verts])
        fields = {
            "result": "ok",
            "order": len(verts),
            "connectivity_at_least": args.k,
            "vertices": " ".join(map(str, verts)),
        }
    else:
        if mode == "mader":
            model = mader_min_degree_minor(g, args.d)
        elif mode == "dense-connected":
            model = dense_connected_minor(g, args.d)
        else:
            model = _dense_minor(g, side if bipartite else None, args.eps, args.t,
                                 args.c_scale, args.seed, args.attempts)
        fields = _pattern_summary(model)
        if mode == "dense-connected":
            fields["pattern_connectivity"] = vertex_connectivity(model.pattern)
    if args.out is not None:
        _emit(serialize_model(model), args.out)
    if args.format == "json":
        fields["fragments"] = [sorted(f) for f in model.fragments]
    sys.stdout.write(_render(fields, args.format))
    return 0


def _cmd_verify(args) -> int:
    if not 0 <= args.eps < 1:
        return _usage("--eps must lie in [0, 1)")
    if args.t < 2:
        return _usage("--t must be at least 2")
    g, _ = parse_graph(_read(args.graph))
    model = parse_model(_read(args.model), g)
    report = validate_model(model)
    if not report.valid:
        subject, reason = report.violations[0]
        sys.stdout.write(_render(
            {"result": "invalid", "violation": f"fragment {subject}: {reason}"},
            args.format,
        ))
        return 2
    pattern = report.pattern
    ok = pattern.n == args.t and is_eps_t_dense(pattern, args.eps)
    fields: dict = {
        "result": "valid" if ok else "invalid",
        "pattern_order": pattern.n,
        "pattern_edges": pattern.m,
    }
    if pattern.n != args.t:
        fields["violation"] = f"pattern order {pattern.n} differs from t"
    else:
        fields.update(_density_fields(pattern))
        if not ok:
            fields["violation"] = "density below the threshold"
    sys.stdout.write(_render(fields, args.format))
    return 0 if ok else 2


def _family_fields(fam: PathFamily) -> dict:
    return {"result": "paths", "paths": [list(p) for p in fam.paths]}


def _separation_fields(sep: Separation) -> dict:
    cut = sorted(sep.a & sep.b)
    return {
        "result": "separation",
        "order": sep.order,
        "cut": " ".join(map(str, cut)),
        "side_a": " ".join(map(str, sorted(sep.a))),
        "side_b": " ".join(map(str, sorted(sep.b))),
    }


def _cmd_paths(args) -> int:
    g, _ = parse_graph(_read(args.graph))
    if args.pairs is not None:
        fam = find_linkage(g, args.pairs)
        fields = (
            {"result": "not-linkable"} if fam is None else _family_fields(fam)
        )
    else:
        if args.s is None or args.t is None or args.k is None:
            return _usage("paths needs --pairs, or --s with --t and --k")
        outcome = menger(g, args.s, args.t, args.k)
        fields = (
            _family_fields(outcome)
            if isinstance(outcome, PathFamily)
            else _separation_fields(outcome)
        )
    _emit(_render(fields, args.format), args.out)
    return 0


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _config_error(message: str) -> ParseError:
    return ParseError(f"config: {message}")


def _config_int(value, key: str) -> int:
    # JSON true and false load as bool, an int subclass
    if type(value) is not int:
        raise _config_error(f"{key} must be an integer, not {json.dumps(value)}")
    return value


def _config_fraction(value, key: str) -> Fraction:
    if type(value) not in (str, int):
        raise _config_error(f"{key} must be a p/q string, not {json.dumps(value)}")
    try:
        return parse_fraction(str(value))
    except ParseError as exc:
        raise _config_error(f"{key} is {exc}") from None


def _load_config(path: str) -> tuple[dict, str | None]:
    """The experiment settings in ``path``, under the keys the report
    echoes, and the report's file name.  Each key is checked against the
    JSON type it needs; ParseError names the first key that is wrong."""
    try:
        raw = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise _config_error(f"bad JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise _config_error("top level must be an object")
    ens = raw.get("ensemble")
    if not isinstance(ens, dict) or "kind" not in ens:
        raise _config_error("ensemble object with a kind is required")
    kind = ens["kind"]
    if kind not in ("gnp", "bipartite"):
        raise _config_error(f"unknown ensemble kind {kind!r}")
    cfg: dict = {"kind": kind}
    for key in ("n",) if kind == "gnp" else ("a", "b"):
        if key not in ens:
            raise _config_error(f"{key} is required for a {kind} ensemble")
        cfg[key] = _config_int(ens[key], key)
    cfg["count"] = _config_int(ens.get("count", 1), "count")
    cfg["p"] = [_config_fraction(p, "p") for p in _as_list(ens.get("p", "1/2"))]
    cfg["eps"] = [_config_fraction(e, "eps") for e in _as_list(raw.get("eps", []))]
    cfg["t"] = [_config_int(t, "t") for t in _as_list(raw.get("t", []))]
    cfg["c_scale"] = (
        _config_fraction(raw["c_scale"], "c_scale") if "c_scale" in raw else DEFAULT_C_SCALE
    )
    cfg["seed"] = _config_int(raw.get("seed", 0), "seed")
    if "attempts" in raw:
        cfg["attempts"] = _config_int(raw["attempts"], "attempts")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise _config_error(f"out must be a file name, not {json.dumps(out)}")
    if not all(0 <= p <= 1 for p in cfg["p"]):
        raise _config_error("p must lie in [0,1]")
    if not all(0 < e < DENSE_EPS_BOUND for e in cfg["eps"]):
        raise _config_error(f"eps must lie in (0, {DENSE_EPS_BOUND})")
    if not all(t >= 2 for t in cfg["t"]):
        raise _config_error("t must be at least 2")
    for key in ("n", "a", "b", "count", "seed"):
        if cfg.get(key, 0) < 0:
            raise _config_error(f"{key} must be nonnegative")
    if cfg.get("attempts", 1) < 1:
        raise _config_error("attempts must be at least 1")
    if cfg["c_scale"] <= 0:
        raise _config_error("c_scale must be positive")
    return cfg, out


def _instance_seeds(master: int, ci: int, ii: int) -> tuple[int, int]:
    # tag 5 follows perfbench's 1-4; untagged, cell 0 made the fold symmetric:
    # derive_seed(m, 0, i, j) == derive_seed(i, 0, m, j)
    return derive_seed(master, 5, ci, ii, 0), derive_seed(master, 5, ci, ii, 1)


def _run_instance(cfg: dict, p: Fraction, eps: Fraction, t: int,
                  ci: int, ii: int) -> dict:
    seed_graph, seed_build = _instance_seeds(cfg["seed"], ci, ii)
    if cfg["kind"] == "gnp":
        g = random_graph(cfg["n"], p, Rng(seed_graph))
    else:
        g = random_bipartite(cfg["a"], cfg["b"], p, Rng(seed_graph))
    record: dict = {
        "cell": ci,
        "instance": ii,
        "p": format_fraction(p),
        "eps": format_fraction(eps),
        "t": t,
        "seed_graph": seed_graph,
        "seed_build": seed_build,
        "avg_degree": format_fraction(average_degree(g)),
    }
    started = time.perf_counter_ns()
    try:
        # a gnp config has no side A, so cfg.get("a") picks the plain builder
        model = _dense_minor(g, cfg.get("a"), eps, t, cfg["c_scale"], seed_build,
                             cfg.get("attempts", DEFAULT_MAX_ATTEMPTS))
        report = validate_model(model)
        ok = report.valid and is_eps_t_dense(report.pattern, eps, t)
        record["success"] = ok
        if ok:
            record["pattern_order"] = report.pattern.n
            record.update(_density_fields(report.pattern))
            record["fragments"] = [sorted(f) for f in model.fragments]
        else:
            record["error"] = "certificate re-check failed"
    except MinorforgeError as exc:
        record["success"] = False
        record["error"] = type(exc).__name__
        record["reason"] = str(exc)
    record["wall_ms"] = (time.perf_counter_ns() - started) // 1_000_000
    return record


def _cmd_experiment(args) -> int:
    cfg, out = _load_config(args.config)
    cells = [(p, eps, t) for p in cfg["p"] for eps in cfg["eps"] for t in cfg["t"]]
    records = []
    cell_rows = []
    for ci, (p, eps, t) in enumerate(cells):
        cell_records = [
            _run_instance(cfg, p, eps, t, ci, ii)
            for ii in range(cfg["count"])
        ]
        records.extend(cell_records)
        successes = sum(1 for r in cell_records if r["success"])
        degrees = [Fraction(r["avg_degree"]) for r in cell_records]
        mean_deg = (
            sum(degrees) / len(degrees) if degrees else Fraction(0)
        )
        scale = t * sqrt_log_inv(eps)
        cell_rows.append(
            {
                "cell": ci,
                "p": format_fraction(p),
                "eps": format_fraction(eps),
                "t": t,
                "count": len(cell_records),
                "successes": successes,
                "rate": (
                    successes / len(cell_records) if cell_records else 0.0
                ),
                "mean_avg_degree": float(mean_deg),
                "degree_multiple": float(mean_deg) / scale if scale else 0.0,
            }
        )
    aggregates = {
        "cells": cell_rows,
        "total": len(records),
        "total_successes": sum(1 for r in records if r["success"]),
    }
    if args.out is not None:
        out = args.out
    _emit(dump_report(make_report(cfg, records, aggregates)), out)
    if out is not None:
        stem, _ = os.path.splitext(out)
        with open(stem + ".csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=[
                    "cell", "p", "eps", "t", "count", "successes",
                    "rate", "mean_avg_degree", "degree_multiple",
                ],
            )
            writer.writeheader()
            writer.writerows(cell_rows)
    return 0


def _cmd_export_dot(args) -> int:
    g, _ = parse_graph(_read(args.graph))
    model = None
    if args.model is not None:
        model = parse_model(_read(args.model), g)
    _emit(to_dot(g, model), args.out)
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorforge",
        description="constructive graph-minor toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a graph file")
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--p", type=_rational, default=None)
    gen.add_argument("--seed", type=_seed, default=0)
    gen.add_argument("--complete", type=int, default=None)
    gen.add_argument("--bipartite", type=int, nargs=2, default=None,
                     metavar=("A", "B"))
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    ext = sub.add_parser("extract", help="run a minor extraction")
    ext.add_argument(
        "mode",
        choices=[
            "mader", "dense-connected", "dense-minor",
            "dense-minor-bipartite", "kconn",
        ],
    )
    ext.add_argument("graph")
    ext.add_argument("--d", type=int, default=None)
    ext.add_argument("--k", type=int, default=None)
    ext.add_argument("--eps", type=_rational, default=None)
    ext.add_argument("--t", type=int, default=None)
    ext.add_argument("--c-scale", type=_rational, default=DEFAULT_C_SCALE,
                     dest="c_scale")
    ext.add_argument("--attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    ext.add_argument("--seed", type=_seed, default=0)
    ext.add_argument("--out", default=None)
    ext.add_argument("--format", choices=["text", "json"], default="text")
    ext.set_defaults(func=_cmd_extract)

    ver = sub.add_parser("verify", help="re-validate a model file")
    ver.add_argument("graph")
    ver.add_argument("model")
    ver.add_argument("--eps", type=_rational, required=True)
    ver.add_argument("--t", type=int, required=True)
    ver.add_argument("--format", choices=["text", "json"], default="text")
    ver.set_defaults(func=_cmd_verify)

    pth = sub.add_parser("paths", help="disjoint paths and separations")
    pth.add_argument("graph")
    pth.add_argument("--s", type=_vertex_list, default=None)
    pth.add_argument("--t", type=_vertex_list, default=None)
    pth.add_argument("--k", type=int, default=None)
    pth.add_argument("--pairs", type=_pair_list, default=None)
    pth.add_argument("--out", default=None)
    pth.add_argument("--format", choices=["text", "json"], default="text")
    pth.set_defaults(func=_cmd_paths)

    exp = sub.add_parser("experiment", help="seeded grid sweep")
    exp.add_argument("config")
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=_cmd_experiment)

    dot = sub.add_parser("export-dot", help="graph (and model) as DOT")
    dot.add_argument("graph")
    dot.add_argument("--model", default=None)
    dot.add_argument("--out", default=None)
    dot.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (
        ParseError,
        OrderTooSmallError,
        UnknownVertexError,
        NotAnEdgeError,
        InvalidBipartitionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MinorforgeError as exc:
        print(
            f"construction failed: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
