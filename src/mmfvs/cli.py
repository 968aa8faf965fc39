"""Command-line entry points.

Exit codes: 0 for yes/success, 1 for a no answer (or failed verification),
2 for errors.  Solution files carry one 1-indexed vertex id per line,
matching the instance file numbering.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from mmfvs.batch import ALGORITHMS, MAX_SECONDS, render_report, run_batch, run_one, summarize
from mmfvs.graph import Graph
from mmfvs.instances import FAMILIES, InstanceFormatError, generate, parse_instance, write_instance
from mmfvs.reduction import ppt_mmvc_to_mmfvs
from mmfvs.verify import is_fvs, is_minimal_fvs

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _load_instance(path: str) -> Graph:
    return parse_instance(Path(path).read_text())


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_params(pairs: list[str]) -> dict[str, object]:
    params: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"parameter {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def _solution_text(g: Graph, vertices: frozenset[int]) -> str:
    rank = {v: i + 1 for i, v in enumerate(g.sorted_vertices())}
    return "".join(f"{rank[v]}\n" for v in sorted(vertices))


def _seconds(text: str) -> float:
    """A positive number of seconds up to `batch.MAX_SECONDS`, for --timeout."""
    seconds = float(text)
    if not 0 < seconds <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive number of seconds up to {MAX_SECONDS:g}"
        )
    return seconds


_REQUIRED = {"ksolver": "k", "approx": "epsilon", "ppt-check": "k"}


def _algo_params(args: argparse.Namespace) -> dict[str, object]:
    """The given --k and --epsilon; a ValueError when the one the algorithm needs is missing."""
    params = {name: value for name in ("k", "epsilon") if (value := getattr(args, name)) is not None}
    needed = _REQUIRED.get(args.algo)
    if needed and needed not in params:
        raise ValueError(f"{args.algo} needs --{needed}")
    return params


def _cmd_solve(args: argparse.Namespace) -> int:
    params = _algo_params(args)
    g = _load_instance(args.instance)
    record = run_one(Path(args.instance).name, g, args.algo, params, timeout=args.timeout)
    if record.error:
        print(f"error: {record.error}", file=sys.stderr)
        return EXIT_ERROR
    if record.outcome == "no":
        print("no")
        return EXIT_NO
    solution = frozenset(record.stats.get("solution", ()))
    print(f"yes size={record.size} verified={str(record.verified).lower()}")
    _emit(_solution_text(g, solution), args.output)
    return EXIT_YES


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_instance(args.instance)
    ordered = g.sorted_vertices()
    picked: set[int] = set()
    for lineno, raw in enumerate(Path(args.solution).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            index = int(line)
        except ValueError:
            print(f"solution line {lineno}: not a vertex id", file=sys.stderr)
            return EXIT_ERROR
        if not 1 <= index <= len(ordered):
            print(f"solution line {lineno}: id out of range", file=sys.stderr)
            return EXIT_ERROR
        picked.add(ordered[index - 1])
    certificate = is_minimal_fvs(g, frozenset(picked))
    if certificate is not None:
        print(f"verified minimal fvs, size={len(picked)}")
        return EXIT_YES
    reason = "not an fvs" if not is_fvs(g, picked) else "fvs but not minimal"
    print(reason)
    return EXIT_NO


def _cmd_gen(args: argparse.Namespace) -> int:
    params = _parse_params(args.params or [])
    g = generate(args.family, params, seed=args.seed)
    header = f"family={args.family} params={params} seed={args.seed}"
    _emit(write_instance(g, comments=[header]), args.output)
    return EXIT_YES


def _cmd_reduce_ppt(args: argparse.Namespace) -> int:
    g = _load_instance(args.instance)
    ppt = ppt_mmvc_to_mmfvs(g, args.k)
    rank = {v: i + 1 for i, v in enumerate(ppt.graph.sorted_vertices())}
    pads = sorted(rank[p] for p in ppt.pads)
    comments = [
        f"ppt-from-max-min-vc n={len(g)} k={args.k} kprime={ppt.k_prime}",
        f"apex {rank[ppt.apex]}",
        f"pads {pads[0]}..{pads[-1]}",
        f"anchor {rank[ppt.anchor]}",
    ]
    _emit(write_instance(ppt.graph, comments=comments), args.output)
    return EXIT_YES


def _cmd_bench(args: argparse.Namespace) -> int:
    params = _algo_params(args)
    corpus = sorted(Path(args.corpus).glob("*.mmfvs"))
    if not corpus:
        print(f"no *.mmfvs instances under {args.corpus}", file=sys.stderr)
        return EXIT_ERROR
    instances = [(path.name, parse_instance(path.read_text())) for path in corpus]
    records = run_batch(
        instances, args.algo, params, threads=args.threads, timeout=args.timeout
    )
    Path(args.report).write_text(render_report(records, include_timings=args.timings))
    sys.stdout.write(summarize(records))
    failed = [r for r in records if r.error]
    return EXIT_ERROR if failed else EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmfvs",
        description="Exact and approximate solvers for Max Min Feedback Vertex Set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("instance")
    solve.add_argument("--algo", choices=[a for a in ALGORITHMS if a != "ppt-check"], required=True)
    solve.add_argument("--k", type=int)
    solve.add_argument("--epsilon", type=float)
    solve.add_argument("--timeout", type=_seconds)
    solve.add_argument("--output", help="write the solution (one id per line) here")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check a solution file against an instance")
    verify.add_argument("instance")
    verify.add_argument("solution")
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--params", nargs="*", metavar="key=value")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--output")
    gen.set_defaults(func=_cmd_gen)

    reduce_ppt = sub.add_parser(
        "reduce-ppt", help="transform a Max Min VC instance into a Max Min FVS one"
    )
    reduce_ppt.add_argument("instance")
    reduce_ppt.add_argument("--k", type=int, required=True)
    reduce_ppt.add_argument("--output")
    reduce_ppt.set_defaults(func=_cmd_reduce_ppt)

    bench = sub.add_parser("bench", help="run an algorithm over a corpus directory")
    bench.add_argument("--corpus", required=True)
    bench.add_argument("--algo", choices=ALGORITHMS, required=True)
    bench.add_argument("--k", type=int)
    bench.add_argument("--epsilon", type=float)
    bench.add_argument("--threads", type=int, default=1)
    bench.add_argument("--timeout", type=_seconds)
    bench.add_argument("--report", default="bench-report.jsonl")
    bench.add_argument("--timings", action="store_true", help="include wall times in the report")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
