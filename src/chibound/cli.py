"""Command-line driver: construct the base and power graphs, and run the
checks of ``claims`` on them as reproducible runs with machine-readable
reports. This module reads argv, builds or reads the instances and writes
the output; ``claims`` decides every verdict.

Every output file embeds the run configuration and a content hash of the
inputs. Report files are canonical JSON sorted by (check, instance) with wall
times omitted, so identical configurations produce byte-identical files.
Which options each command variant reads and requires is the table
``_VARIANTS``; a run that gives any other option is refused, so an ignored
option never enters a report's config bytes.
Exit codes: 0 all checks passed, 1 a property was violated (witness included
in the report), 2 operational errors (bad arguments, an option the command
does not read, non-prime modulus, exceeded budgets or size caps, IO).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

from . import claims
from .errors import GraphError, NotPrime, OrderTooLarge, SizeBudgetExceeded
from .formats import canonical_json, graph_json_dict, read_edgelist, write_dimacs, write_edgelist
from .graphs import LabeledGraph
from .oracles import Budget, VerificationReport
from .power import BUILTIN_F, build_power_graph, class_parameters, is_prime, tabulate_f
from .zykov import DEFAULT_SIZE_CAP, build_zykov, capped_size, provenance_json_dict, zykov_closure

DEFAULT_NODE_BUDGET = 5_000_000

# One row per command variant: the command, the options whose presence or
# absence selects the variant, the options it reads, and those it requires.
# Every variant also reads --size-cap and --out. A run is refused with exit 2,
# before anything is built, read or written, when it gives an option its
# variant does not read or lacks one that the variant requires; each
# subparser takes the options its command's rows read.
_VARIANTS = [
    ("construct zykov", {}, "k format", "k"),
    ("construct power", {"f": True}, "f n format", "n"),
    ("construct power", {"f": False}, "k p format", "k p"),
    ("verify lemma21", {}, "k budget_ms budget_nodes", "k"),
    ("verify lemma22", {}, "k p budget_ms budget_nodes", "k p"),
    ("verify lemma24", {}, "p n", "p"),
    ("verify claim26", {"n": True}, "k p n", "k p"),
    ("verify claim26", {"n": False}, "k p budget_ms budget_nodes", "k p"),
    ("verify all", {}, "k p n budget_ms budget_nodes", "k p"),
    ("color", {"input": True, "n": True}, "input p n", ""),
    ("color", {"input": True, "n": False}, "input p budget_ms budget_nodes", ""),
    ("color", {"input": False, "n": True}, "k p n", "k p"),
    ("color", {"input": False, "n": False}, "k p budget_ms budget_nodes", "k p"),
    ("sample-hereditary", {"input": True}, "input p budget_ms budget_nodes seed density count", ""),
    ("sample-hereditary", {"input": False}, "k p budget_ms budget_nodes seed density count", "k p"),
]


def _flag(name: str) -> str:
    return "an input file" if name == "input" else "--" + name.replace("_", "-")


def _variant(args) -> tuple[str, dict]:
    """The command of the table row this run selects, and the options that
    row reads with their values; refuses an option the row does not read
    and a missing one that it requires."""
    options = vars(args)
    command = " ".join(filter(None, (args.command, options.get("kind"))))
    rows = [row for row in _VARIANTS if row[0].split()[0] == args.command]
    _, when, reads, requires = next(
        row
        for row in rows
        if row[0] == command and all((options[name] is not None) == given for name, given in row[1].items())
    )
    reads = reads.split()
    case = " and ".join(f"{'with' if given else 'without'} {_flag(name)}" for name, given in when.items())
    case = case and " " + case
    for name, value in options.items():
        if value is not None and name not in reads and any(name in row[2].split() for row in rows):
            raise ValueError(f"{command} does not read {_flag(name)}{case}")
    for name in requires.split():
        if options[name] is None:
            raise ValueError(f"{command} needs {_flag(name)}{case}")
    return command, {name: options[name] for name in reads}


def _make_config(args, variant, input_bytes: bytes | None = None, **derived) -> dict:
    """Everything that determines a run's output, minus where it is written:
    the options its variant reads, the values derived from them, and the cap.
    The seed and the budgets stand beside the parameters."""
    command, read = variant
    top = {name: read.get(name) for name in ("seed", "budget_ms", "budget_nodes")}
    params = {name: value for name, value in read.items() if name not in top} | derived | {"size_cap": args.size_cap}
    params = {k: v for k, v in sorted(params.items()) if v is not None}
    if input_bytes is None:
        input_bytes = canonical_json({"command": command, "parameters": params}).encode()
    return top | {"command": command, "parameters": params, "input_sha256": hashlib.sha256(input_bytes).hexdigest()}


def _budget(args) -> Budget:
    ms, nodes = args.budget_ms, args.budget_nodes
    for flag, value in (("--budget-ms", ms), ("--budget-nodes", nodes)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    if ms is not None and not math.isfinite(ms):
        raise ValueError(f"--budget-ms must be finite, got {ms}")
    if ms is None and nodes is None:
        return Budget(max_nodes=DEFAULT_NODE_BUDGET)
    return Budget(max_nodes=nodes, max_millis=ms)


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_reports(reports: list[VerificationReport], config: dict, out: str | None, coloring=None) -> int:
    ordered = sorted(reports, key=lambda r: (r.check, r.instance))
    for r in ordered:
        print(f"[{r.verdict}] {r.check} on {r.instance} ({r.wall_time_ms:.1f} ms)", file=sys.stderr)
    payload = {
        "config": config,
        "reports": [r.to_json_dict() for r in ordered],
    }
    if coloring is not None:
        payload["coloring"] = coloring.to_json_dict()
    _write_text(out, canonical_json(payload))
    if any(r.verdict == "fail" for r in ordered):
        return 1
    if any(r.verdict == "budget-exceeded" for r in ordered):
        return 2
    return 0


def _capped_span(top: int, size_cap: int, unit: str = "residues") -> int:
    """``top`` as given, refused with SizeBudgetExceeded when it spans more
    than ``size_cap`` values: a modulus p has p - 1 residues, and a growth
    domain 2..n has n - 1 orders. This runs before is_prime or tabulate_f,
    whose cost grows with ``top``."""
    if top - 1 > size_cap:
        raise SizeBudgetExceeded(top - 1, size_cap, unit=unit)
    return top


def _tower_power(k: int, p: int, size_cap: int) -> LabeledGraph:
    """power(k, p) on the closure composed from the layout, not merged by ``distance_table``."""
    return build_power_graph(None, p, zykov_closure(k, size_cap))


# ----------------------------------------------------------------- construct


def _load_f_table(source: str, n_max: int) -> dict[int, int]:
    if source in BUILTIN_F:
        return tabulate_f(source, n_max)
    with open(source) as fh:
        raw = json.load(fh)
    bad = ValueError(f"growth table {source} is not a JSON object of integers {{order: value}}")
    if not isinstance(raw, dict) or not all(type(v) is int for v in raw.values()):
        raise bad
    try:
        return {int(k): v for k, v in raw.items()}
    except ValueError:
        raise bad from None


def _resolve_power_params(args):
    """(k, p, params-json-or-None): explicit --k/--p, or derived from --f/--n
    by taking p as the largest prime at or below n and k as the growth target
    g(p), which makes the built power graph the witness for target n."""
    if args.f is not None:
        table = _load_f_table(args.f, _capped_span(args.n, args.size_cap, "orders"))
        params = class_parameters(table, args.n)
        p = params.witness_for(args.n)
        k = params.g[p]
        return k, p, params.to_json_dict()
    return args.k, _capped_span(args.p, args.size_cap), None


def cmd_construct(args, variant) -> int:
    if args.kind == "zykov":
        config = _make_config(args, variant)
        pv, pe = capped_size(args.k, args.size_cap)
        print(f"predicted size: {pv} vertices, {pe} edges", file=sys.stderr)
        zg = build_zykov(args.k, size_cap=args.size_cap)
        if (zg.graph.n, zg.graph.m) != (pv, pe):
            raise AssertionError(f"built size {(zg.graph.n, zg.graph.m)} != predicted {(pv, pe)}")
        graph, labels, p = zg.graph, None, None
        extra = {"provenance": provenance_json_dict(args.k)}
    else:
        k, p, params_json = _resolve_power_params(args)
        # k = g(p) of a fast-growing f may be too long to print; refuse it first
        pv, pe = capped_size(k, args.size_cap)
        config = _make_config(args, variant, k=k, p=p)
        print(f"predicted base size: {pv} vertices, {pe} edges", file=sys.stderr)
        pg = _tower_power(k, p, args.size_cap)
        graph, labels = pg.graph, pg.labels
        extra = {}
        if params_json is not None:
            extra["class_parameters"] = params_json

    meta = {
        "config": json.dumps(config, sort_keys=True),
        "input-sha256": config["input_sha256"],
    }
    if p is not None:
        meta["p"] = p
    if args.format == "edgelist":
        _write_text(args.out, write_edgelist(graph, labels, metadata=meta))
        if args.out is not None and "provenance" in extra:
            _write_text(args.out + ".provenance.json", canonical_json(extra["provenance"]))
    elif args.format == "dimacs":
        comments = "".join(f"c {k}: {v}\n" for k, v in meta.items())
        _write_text(args.out, comments + write_dimacs(graph))
    else:
        doc = {"config": config, "graph": graph_json_dict(graph, labels, p)}
        doc.update(extra)
        _write_text(args.out, canonical_json(doc))
    print(f"built: {graph.n} vertices, {graph.m} edges", file=sys.stderr)
    return 0


# -------------------------------------------------------------------- verify


def cmd_verify(args, variant) -> int:
    budget = _budget(args)
    if args.p is not None:
        _capped_span(args.p, args.size_cap)
    if args.n is not None and args.n < 1:  # every variant that reads --n requires --p
        raise OrderTooLarge(args.n, args.p)
    # each instance is built, and its clique searched, at most once per run
    zg = build_zykov(args.k, size_cap=args.size_cap) if args.kind in ("lemma21", "all") else None
    pg = _tower_power(args.k, args.p, args.size_cap) if args.kind in ("lemma22", "claim26", "all") else None
    reports, n = claims.verify(args.kind, zg, pg, args.k, args.p, args.n, budget)
    return _emit_reports(reports, _make_config(args, variant, n=n), args.out)


# --------------------------------------------------------------------- color


def _load_labeled_input(args):
    """Labeled graph from the input file, or built from --k/--p; returns
    (labeled graph, instance description, raw input bytes or None)."""
    if args.input is not None:
        with open(args.input, "rb") as fh:
            raw = fh.read()
        graph, labels, meta = read_edgelist(raw.decode(), size_cap=args.size_cap)
        file_p = None
        if "p" in meta:
            try:
                file_p = int(meta["p"])
            except ValueError:
                raise ValueError(f"input file's modulus '# p: {meta['p']}' is not an integer") from None
        p = file_p if args.p is None else args.p
        if p is None:
            raise ValueError("input file carries no modulus; pass --p")
        if not is_prime(_capped_span(p, args.size_cap)):
            raise NotPrime(p)
        if file_p is not None and p != file_p:
            raise ValueError(f"--p {p} disagrees with the input file's modulus '# p: {file_p}'")
        if labels is None and graph.m > 0:
            raise ValueError("input graph has unlabeled edges; coloring needs residue labels")
        return LabeledGraph(graph, labels or (), p), f"file({args.input})", raw
    _capped_span(args.p, args.size_cap)
    return _tower_power(args.k, args.p, args.size_cap), f"power(k={args.k}, p={args.p})", None


def cmd_color(args, variant) -> int:
    g, inst, raw = _load_labeled_input(args)
    n, reports, coloring = claims.color(g, args.n, inst, _budget(args))
    return _emit_reports(reports, _make_config(args, variant, raw, p=g.p, n=n), args.out, coloring=coloring)


# ---------------------------------------------------------- sample-hereditary


def cmd_sample_hereditary(args, variant) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    if not 0.0 <= args.density <= 1.0:
        raise ValueError(f"--density must lie in [0, 1], got {args.density}")
    g, inst, raw = _load_labeled_input(args)
    reports = claims.sample_hereditary(g, inst, _budget(args), args.count, args.density, args.seed)
    return _emit_reports(reports, _make_config(args, variant, raw, p=g.p), args.out)


# ---------------------------------------------------------------------- main


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chibound",
        description="Build and certify the graphs whose clique number stays small "
        "while their chromatic number grows beyond any polynomial function of it.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    specs = {  # every option a row of _VARIANTS reads, in help order
        "k": dict(type=int, help="construction level of the base graph"),
        "p": dict(type=int, help="prime modulus"),
        "n": dict(type=int, help="order (clique bound / partition order)"),
        "f": dict(help="growth table: n^2, 2^n, or a JSON file {order: value}"),
        "budget_ms": dict(type=float, help="wall-time cap per exact search"),
        "budget_nodes": dict(
            type=int, help=f"search-node cap per exact search (default {DEFAULT_NODE_BUDGET} when no budget given)"
        ),
        "seed": dict(type=int, default=0, help="PRNG seed for subset sampling"),
        "density": dict(type=float, default=0.5, help="per-vertex selection probability"),
        "count": dict(type=int, default=100, help="number of sampled subgraphs"),
        "format": dict(choices=["edgelist", "dimacs", "json"], default="edgelist"),
    }
    for command, func, help_, kind_help in (
        ("construct", cmd_construct, "build a base graph or its residue power graph", None),
        (
            "verify",
            cmd_verify,
            "run certification suites and write a report",
            "lemma21: base-graph structure and chromatic number; lemma22: clique bound "
            "of the power graph; lemma24: residue partition zero-sum freeness; claim26: "
            "per-class long-path absence plus the product coloring",
        ),
        ("color", cmd_color, "run the bounding product coloring on a labeled graph", None),
        ("sample-hereditary", cmd_sample_hereditary, "check sampled induced subgraphs end to end", None),
    ):
        rows = [row for row in _VARIANTS if row[0].split()[0] == command]
        reads = {name for row in rows for name in row[2].split()}
        p_ = sub.add_parser(command, help=help_)
        kinds = [row[0].split()[1] for row in rows if " " in row[0]]
        if kinds:
            p_.add_argument("kind", choices=list(dict.fromkeys(kinds)), help=kind_help)
        if "input" in reads:
            p_.add_argument("input", nargs="?", help="labeled edge-list file (built from --k/--p when omitted)")
        for name, spec in specs.items():
            if name in reads:
                p_.add_argument(_flag(name), **spec)
        p_.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP, help="refuse graphs, moduli p and --f domains above this size")
        p_.add_argument("--out", default=None, help="output path (stdout when omitted)")
        p_.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args, _variant(args))
    except (ValueError, OSError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
