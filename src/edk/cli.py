"""Command-line interface.

One executable with subcommands for spectra, chromatic numbers, type
enumeration, the distance function, editing, the exact oracle, samplers,
Monte Carlo estimation, and the built-in reference checks.  Output is JSON
(``--format csv`` where tabular), except that type listings are text unless
``--format json``; rationals are serialized as "num/den" strings.
``distfn`` takes ``--p`` or ``--grid``, not both; its CSV rows are a
density's entries then the value, at each grid point, at ``--p``, or at the
argmax.  All
randomness sits behind an explicit ``--seed``.  A subcommand takes only the
flags it reads: ``--jobs`` on ``edit`` and ``estimate``, ``--ceiling`` (the
type enumeration's candidate ceiling) on those two and ``types`` and
``distfn``.

Exit codes: 0 success, 1 domain error (trivial property, guard, failed
reference check), 2 usage error (bad flag or environment variable) or
malformed file, 3 internal error (any other exception; the traceback goes to
stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from fractions import Fraction

from .crg import DirType, dir_mask_codes, enumerate_types, mask_colors
from .distance import dist_lower_turan, dist_max_upper, dist_upper, distfn_grid
from .editing import _random_edit, check_weights
from .errors import PropertyFormatError, TrivialPropertyError, UsageError
from .files import format_graph, parse_graph, parse_property
from .graphs import (
    DIR_SYMBOL,
    DensityVector,
    DirDensity,
    PropertyFamily,
    hamming,
    is_member,
    pair_count,
    pair_index,
    rational,
)
from .oracle import estimate_dist, exact_dist, sample_digraph, sample_rgraph
from .spectrum import chromatic_number, clique_spectrum
from .verify import run_cases


def _frac(value) -> str:
    return str(Fraction(value))


def _normalized(count, n) -> str:
    """``count`` over the pair count of an n-vertex graph; "0" when n < 2."""
    return _frac(Fraction(count, pair_count(n))) if n >= 2 else "0"


def _density_list(dens):
    if isinstance(dens, DensityVector):
        return [_frac(p) for p in dens]
    return [_frac(dens.p), _frac(dens.q)]


def _rationals(text: str, flag: str, count=None):
    """The comma-separated rationals of a flag's value; a malformed entry,
    or a number of entries other than ``count`` when given, is a usage error
    naming the flag."""
    try:
        values = [rational(part.strip()) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None
    if count is not None and len(values) != count:
        raise UsageError(f"{flag}: expected {count} comma-separated rationals, got {len(values)}")
    return values


def _parse_density(family: PropertyFamily, text: str):
    if family.is_directed:
        p, q = _rationals(text, "--p", 2)
        return DirDensity(p, q, family.palette)
    return DensityVector(tuple(_rationals(text, "--p", family.r)))


def _set_token(mask, directed) -> str:
    if directed:
        return "".join(DIR_SYMBOL[c] for c in dir_mask_codes(mask))
    return "".join(str(c) for c in mask_colors(mask))


def _type_text(t) -> str:
    directed = isinstance(t, DirType)
    lines = [f"type n={t.k}"]
    lines.append(" ".join(_set_token(v, directed) for v in t.vertex_sets))
    for i in range(t.k - 1):
        lines.append(" ".join(
            _set_token(t.edge_sets[pair_index(t.k, i, j)], directed) for j in range(i + 1, t.k)
        ))
    return "\n".join(lines)


def _type_json(t):
    directed = isinstance(t, DirType)
    return {
        "k": t.k,
        "vertices": [_set_token(v, directed) for v in t.vertex_sets],
        "edges": [
            [_set_token(t.edge_sets[pair_index(t.k, i, j)], directed) for j in range(i + 1, t.k)]
            for i in range(t.k - 1)
        ],
    }


def _emit(args, payload, csv_rows=None):
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        out = "\n".join(",".join(str(v) for v in row) for row in csv_rows)
        print(out)
    else:
        print(json.dumps(payload))
    return 0


def _read_family(args) -> PropertyFamily:
    with open(args.property, encoding="utf-8") as fh:
        return parse_property(fh.read())


def _read_graph(args):
    with open(args.graph, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _cmd_spectrum(args):
    family = _read_family(args)
    spectrum = clique_spectrum(family, args.mode)
    payload = {
        "mode": args.mode,
        "tuples": [list(t) for t in spectrum.sorted_tuples()],
        "chi": 1 + spectrum.max_sum,
    }
    return _emit(args, payload, csv_rows=[list(t) for t in spectrum.sorted_tuples()])


def _cmd_chi(args):
    family = _read_family(args)
    chi = chromatic_number(family, args.mode)
    payload = {"mode": args.mode, "chi": chi}
    if chi == 1:
        payload["trivial"] = True
    return _emit(args, payload, csv_rows=[[args.mode, chi]])


def _cmd_types(args):
    """Write each type as it is formatted.  The JSON count comes before the
    types, so the JSON form holds the formatted types, not the type objects;
    the text form writes each type as the enumeration yields it, so a guard
    refusal leaves the levels before it on stdout."""
    family = _read_family(args)
    types = enumerate_types(family, args.kmax, candidate_ceiling=args.ceiling)
    write = sys.stdout.write
    if args.format == "json":
        items = [json.dumps(_type_json(t)) for t in types]
        write(f'{{"kmax": {args.kmax}, "count": {len(items)}, "types": [')
        for i, item in enumerate(items):
            write((", " if i else "") + item)
        write("]}\n")
        return 0
    for i, t in enumerate(types):
        write(("\n\n" if i else "") + _type_text(t))
    write("\n")
    return 0


def _cmd_distfn(args):
    family = _read_family(args)
    if args.grid is not None:
        step = _rationals(args.grid, "--grid")
        if len(step) != 1:
            raise UsageError("--grid takes one rational step")
        rows = distfn_grid(family, args.kmax, step[0],
                           candidate_ceiling=args.ceiling)
        payload = {"kmax": args.kmax,
                   "grid": [{"p": _density_list(d), "value": _frac(v)} for d, v in rows]}
    elif args.p is not None:
        dens = _parse_density(family, args.p)
        bound = dist_upper(family, dens, args.kmax, candidate_ceiling=args.ceiling)
        payload = {
            "value": _frac(bound.value),
            "kmax": args.kmax,
            "p": _density_list(dens),
            "certificate_type": _type_json(bound.certificate.crg_type),
            "weights": [_frac(w) for w in bound.certificate.weights],
        }
        rows = [(dens, bound.value)]
    else:
        bound, dens = dist_max_upper(family, args.kmax, candidate_ceiling=args.ceiling)
        lower = None
        try:
            lower = _frac(dist_lower_turan(family).value)
        except TrivialPropertyError:
            pass
        payload = {
            "max_value": _frac(bound.value),
            "argmax": _density_list(dens),
            "kmax": args.kmax,
            "turan_lower": lower,
            "certificate_type": _type_json(bound.certificate.crg_type),
        }
        rows = [(dens, bound.value)]
    return _emit(args, payload, csv_rows=[_density_list(d) + [_frac(v)] for d, v in rows])


def _edit_trial(payload):
    family, graph, k_type, weights, seed = payload
    edited, changes = _random_edit(graph, k_type, weights, seed)
    return changes, is_member(edited, family)


def _cmd_edit(args):
    family = _read_family(args)
    graph = _read_graph(args)
    family.check_graph(graph)
    types = []
    for t in enumerate_types(family, args.kmax, candidate_ceiling=args.ceiling):
        types.append(t)
        if len(types) > args.type_index:
            break
    if args.type_index >= len(types):
        raise ValueError(f"type index {args.type_index} out of range at kmax={args.kmax}")
    k_type = types[args.type_index]
    try:
        weights = check_weights((w.strip() for w in args.weights.split(",")), k_type.k)
    except ValueError as exc:
        raise UsageError(
            f"--weights for the {k_type.k}-vertex type {args.type_index}: {exc}") from None
    payloads = [
        (family, graph, k_type, weights, args.seed + i) for i in range(args.trials)
    ]
    results = list(_trial_map(args)(_edit_trial, payloads))
    if args.trials == 1:
        changes, member = results[0]
        payload = {
            "changes": changes,
            "normalized": _normalized(changes, graph.n),
            "member": member,
        }
        return _emit(args, payload, csv_rows=[[changes, member]])
    payload = {
        "trials": args.trials,
        "mean_changes": sum(c for c, _ in results) / args.trials,
        "min_changes": min(c for c, _ in results),
        "max_changes": max(c for c, _ in results),
        "all_members": all(m for _, m in results),
    }
    return _emit(args, payload, csv_rows=[[c, m] for c, m in results])


def _cmd_oracle(args):
    family = _read_family(args)
    graph = _read_graph(args)
    edits, witness = exact_dist(graph, family, max_n=args.max_n)
    payload = {
        "edits": edits,
        "normalized": _normalized(edits, graph.n),
        "witness_member": is_member(witness, family),
        "hamming_check": edits == hamming(graph, witness),
    }
    return _emit(args, payload)


def _cmd_sample(args):
    if args.p is not None:
        directed = [flag for flag, value in (("--palette", args.palette), ("--dens", args.dens))
                    if value is not None]
        if directed:
            raise UsageError(f"--p samples a multicolor graph; it cannot go with "
                             f"{' and '.join(directed)}, which sample a digraph")
        values = _rationals(args.p, "--p")
        if len(values) < 2:
            raise UsageError(f"--p: expected at least 2 comma-separated rationals (one per "
                             f"color), got {len(values)}")
        dens = DensityVector(tuple(values))
        graph = sample_rgraph(args.n, dens, args.seed)
        text = format_graph(graph)
    else:
        pal = args.palette or "tourn"
        if args.dens is not None:
            p, q = _rationals(args.dens, "--dens", 2)
            if args.palette is None and (p, q) != (0, Fraction(1, 2)):
                raise UsageError(f"--dens {args.dens} needs --palette: the default palette "
                                 f"is tourn, whose density is fixed at 0,1/2")
        elif pal == "tourn":
            p, q = Fraction(0), Fraction(1, 2)
        else:
            raise UsageError(f"--palette {pal} needs --dens 'p,q': only the tourn palette "
                             f"has a fixed density")
        dens = DirDensity.of(p, q, pal)
        graph = sample_digraph(args.n, dens, args.seed)
        text = format_graph(graph, pal)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def worker_count(jobs, trials) -> int:
    """Processes worth starting: no more than the trials or the CPUs."""
    return min(jobs, trials, os.cpu_count() or 1)


def _trial_map(args):
    """``map``, or a worker pool's map when ``--jobs`` and ``--trials`` allow
    more than one process."""
    workers = worker_count(args.jobs, args.trials)
    if workers == 1:
        return map

    def pool_map(fn, items):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))

    return pool_map


def _cmd_estimate(args):
    family = _read_family(args)
    dens = _parse_density(family, args.p)
    stats = estimate_dist(args.n, dens, family, args.trials, args.seed,
                          kmax=args.kmax, mode=args.mode, max_n=args.max_n,
                          map_fn=_trial_map(args), candidate_ceiling=args.ceiling)
    payload = {
        "n": stats.n,
        "trials": stats.trials,
        "mode": stats.mode,
        "mean": _frac(stats.mean),
        "std": stats.std,
        "min": _frac(stats.min),
        "max": _frac(stats.max),
    }
    csv = [[stats.n, stats.trials, stats.mode, _frac(stats.mean), stats.std,
            _frac(stats.min), _frac(stats.max)]]
    return _emit(args, payload, csv_rows=csv)


def _cmd_verify(args):
    report = run_cases(args.case)
    csv_rows = []
    for case in report["cases"]:
        for check in case["checks"]:
            csv_rows.append([case["case"], check["check"], check["expected"],
                             check["actual"], check["pass"]])
    code = _emit(args, report, csv_rows=csv_rows)
    if args.format != "csv":
        for case in report["cases"]:
            status = "pass" if case["pass"] else "FAIL"
            print(f"# {case['case']}: {status}", file=sys.stderr)
    return code if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edk",
        description="Edit distances from colored complete graphs and digraphs "
                    "to hereditary properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, handler, prop=True, formats=("json", "csv"), jobs=False,
                ceiling=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if prop:
            p.add_argument("--property", required=True, help="property file")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="worker count for trials")
        if ceiling:
            p.add_argument("--ceiling", type=int, default=5_000_000,
                           help="candidate ceiling for type enumeration")
        return p

    p = command("spectrum", "weak or strong clique spectrum", _cmd_spectrum)
    p.add_argument("--mode", choices=("weak", "strong"), default="weak")

    p = command("chi", "chromatic number of the family", _cmd_chi)
    p.add_argument("--mode", choices=("weak", "strong"), default="weak")

    p = command("types", "enumerate admissible types", _cmd_types, formats=("text", "json"),
                ceiling=True)
    p.add_argument("--kmax", type=int, required=True)

    p = command("distfn", "distance function bounds", _cmd_distfn, ceiling=True)
    p.add_argument("--kmax", type=int, required=True)
    where = p.add_mutually_exclusive_group()
    where.add_argument("--p", help="density vector, e.g. '1/3,1/3,1/3' (directed: 'p,q')")
    where.add_argument("--grid", help="rational grid step, e.g. '1/12'")

    p = command("edit", "randomized editing toward an admissible type", _cmd_edit, jobs=True,
                ceiling=True)
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--type-index", type=int, required=True,
                   help="index into the enumeration order")
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--weights", required=True, help="simplex weights, e.g. '1/2,1/2'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)

    p = command("oracle", "exact edit distance at small n", _cmd_oracle, formats=())
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--max-n", type=int, default=None, help="override the size guard")

    p = command("sample", "seeded random graph", _cmd_sample, prop=False, formats=())
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", help="multicolor density vector")
    p.add_argument("--palette", choices=("full", "compl", "orien", "undir", "tourn"))
    p.add_argument("--dens", help="directed densities 'p,q'")
    p.add_argument("--out", help="write to a file instead of stdout")

    p = command("estimate", "Monte Carlo distance estimate", _cmd_estimate, jobs=True,
                ceiling=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, help="densities ('p1,...,pr' or 'p,q')")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--mode", choices=("auto", "exact", "algorithmic"), default="auto")
    p.add_argument("--max-n", type=int, default=None)

    p = command("verify-paper", "recompute the built-in reference results", _cmd_verify,
                prop=False)
    p.add_argument("--case", default="all")

    return parser


# The least accepted value of each integer flag, on every subcommand that
# takes it.
_FLAG_MINIMUMS = {"n": 1, "trials": 1, "jobs": 1, "kmax": 1, "ceiling": 1, "type_index": 0,
                  "max_n": 1}


def _check_flag_ranges(args):
    for name, low in _FLAG_MINIMUMS.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"argument {flag}: must be at least {low}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_flag_ranges(args)
        return args.handler(args)
    except (PropertyFormatError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:  # domain errors, the guards included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
