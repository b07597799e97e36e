"""Command-line front-end for running experiments and generating graphs."""

import argparse
import json
import sys

from . import graph as gr
from . import harness
from .errors import DhbError


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dhb",
        description="Distributed heavy-ball optimization and consensus simulator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the run seed (consensus: the "
                       "consensus seed)")
        p.add_argument("--n", type=int, default=None,
                       help="override the agent count (graph.n)")

    add_common(sub.add_parser("run", help="run one experiment config"))
    p_sweep = sub.add_parser("sweep", help="condition-number sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--condition-numbers", required=True,
                         help="comma-separated list, e.g. 10,100,1000")
    add_common(sub.add_parser("consensus", help="consensus comparison"))
    add_common(sub.add_parser("tune", help="grid search only"))
    p_graph = sub.add_parser("graph-gen", help="generate and save a graph")
    p_graph.add_argument("--n", type=int, required=True)
    p_graph.add_argument("--ring-degree", type=int, default=4)
    p_graph.add_argument("--extra-link-fraction", type=float, default=0.001)
    p_graph.add_argument("--directed", action="store_true")
    p_graph.add_argument("--seed", type=int, default=0)
    p_graph.add_argument("--out", required=True, help="edge-list output path")

    args = parser.parse_args(argv)
    # invalid input from any layer is one line on stderr and exit code 2
    try:
        if args.verb != "graph-gen":
            seeded = "consensus" if args.verb == "consensus" else "run"
            cfg = harness.parse_config(args.config, [
                ("graph", "n", args.n), (seeded, "seed", args.seed)])
        if args.verb == "run":
            _, summary = harness.run_experiment(cfg, out_dir=args.out)
            for row in summary:
                print(f"{row['engine']}: alpha={row['alpha']:g} "
                      f"beta={row['beta']:g} "
                      f"iters={row['iterations_to_threshold']} "
                      f"({row['termination']})")
            if all(row["termination"] == "diverged" for row in summary):
                print("error: every engine diverged", file=sys.stderr)
                return 2
        elif args.verb == "sweep":
            try:
                qs = [float(q) for q in args.condition_numbers.split(",")]
            except ValueError:
                raise harness.ConfigError(
                    "--condition-numbers must be a comma-separated list of "
                    f"numbers, not {args.condition_numbers!r}") from None
            rows = harness.run_condition_sweep(cfg, qs, out_dir=args.out)
            for row in rows:
                print(f"Q={row['condition_number']:g} {row['engine']}: "
                      f"iters={row['iterations_to_threshold']}")
        elif args.verb == "consensus":
            results = harness.run_consensus_experiment(cfg, out_dir=args.out)
            for form, r in results.items():
                final = r["trace"].records[-1].residual
                print(f"{form}: alpha={r['alpha']:g} beta={r['beta']:g} "
                      f"radius={r['radius']:.6g} final_residual={final:.3e}")
            if all(r["trace"].diverged for r in results.values()):
                print("error: every consensus form diverged", file=sys.stderr)
                return 2
        elif args.verb == "tune":
            for kind, alpha, beta in harness.tune_engines(cfg):
                if alpha is None:
                    print(f"{kind}: no tune grid, skipped")
                else:
                    print(f"{kind}: alpha={alpha:g} beta={beta:g}")
        elif args.verb == "graph-gen":
            g = gr.generate_nearest_neighbor(
                args.n, args.ring_degree, args.extra_link_fraction,
                args.seed, args.directed,
            )
            gr.save_edge_list(g, args.out)
            print(f"wrote {args.out}: n={g.n}, {len(g.edges())} edges")
    except (DhbError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
