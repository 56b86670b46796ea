"""Command-line harness.

Subcommands: generate (instance files), run (one algorithm, one CSV line),
verify (replay plus feasibility checks on a saved trace), audit (charging
argument on a saved trace), sweep (ratio table over seeds to CSV). The
commands parse and print; what verify and audit check is verify.check_run
and verify.audit_charging.

Exit codes: 0 success or all checks passed, 1 a verification check failed,
2 usage or input error. Floats print with 12 significant digits so golden
outputs diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .algorithms import (
    ALGORITHMS,
    COVER_ALGORITHMS,
    greedy_trials,
    load_trace,
    run_algorithm,
    save_trace,
)
from .constants import DEFAULT_TOL
from .errors import InputError, ParseError
from .instances import (
    ArrivalModel,
    Instance,
    gen_random,
    gen_upper_triangular,
    indented_json,
    load,
    random_coverage_table,
    save,
)
from .submodular import GroundSet, SubmodularFn, fn_from_spec
from .verify import audit_charging, check_run, offline_opt

RUN_CSV_COLUMNS = "algorithm,instance,primal_value,dual_value,offline_opt,ratio"
SWEEP_CSV_HEADER = "algorithm,instance,seed,primal,dual,opt,ratio,ms"


def fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_fn_spec(text: str, n: int) -> SubmodularFn:
    """Budget family from a compact flag value.

    cardinality | uniform:K | partition:BLOCKIDS:CAPS | weighted:WEIGHTS:CAP
    | coverage:SEED[:UNIVERSE], with comma-separated number lists.
    """
    g = GroundSet(n)
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "cardinality" and len(parts) == 1:
            return fn_from_spec({"family": "cardinality"}, g)
        if kind == "uniform" and len(parts) == 2:
            return fn_from_spec({"family": "uniform_rank", "k": int(parts[1])}, g)
        if kind == "partition" and len(parts) == 3:
            ids = [int(s) for s in parts[1].split(",")]
            caps = [float(s) for s in parts[2].split(",")]
            if len(ids) != n:
                raise ParseError(f"partition needs one block id per element ({n}), got {len(ids)}")
            if sorted(set(ids)) != list(range(len(caps))):
                raise ParseError(f"block ids must cover 0..{len(caps) - 1} to match the caps")
            blocks = [[u for u, b in enumerate(ids) if b == j] for j in range(len(caps))]
            return fn_from_spec({"family": "partition_budget", "blocks": blocks, "caps": caps}, g)
        if kind == "weighted" and len(parts) == 3:
            weights = [float(s) for s in parts[1].split(",")]
            if len(weights) != n:
                raise ParseError(f"weighted needs {n} weights, got {len(weights)}")
            return fn_from_spec({"family": "weighted_threshold", "weights": weights,
                                 "cap": float(parts[2])}, g)
        if kind == "coverage" and len(parts) in (2, 3):
            universe = int(parts[2]) if len(parts) == 3 else None
            return random_coverage_table(n, int(parts[1]), universe)
    except ValueError as exc:
        raise ParseError(f"bad --f value {text!r}: {exc}") from exc
    raise ParseError(f"bad --f value {text!r}; expected cardinality, uniform:K, "
                     f"partition:BLOCKIDS:CAPS, weighted:WEIGHTS:CAP, or coverage:SEED[:UNIVERSE]")


def parse_seeds(text: str) -> list[int]:
    """Comma list with ranges: '0,2,5-8' -> [0, 2, 5, 6, 7, 8]."""
    seeds: list[int] = []
    try:
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            lo, sep, hi = piece.partition("-")
            if sep and lo:  # leading '-' is a negative number, not a range
                a, b = int(lo), int(hi)
                if b < a:
                    raise ParseError(f"empty seed range {piece!r}")
                seeds.extend(range(a, b + 1))
            else:
                seeds.append(int(piece))
    except ValueError as exc:
        raise ParseError(f"bad --seeds value {text!r}: {exc}") from exc
    if not seeds:
        raise ParseError("no seeds given")
    return seeds


def _ratio(algorithm: str, primal: float, dual: float, opt: float) -> float:
    """Cover algorithms report cost over optimum, matching ones value over
    optimum; 0/0 counts as meeting the bound exactly."""
    value = dual if algorithm in COVER_ALGORITHMS else primal
    if opt == 0.0:
        return 1.0 if value == 0.0 else float("inf")
    return value / opt


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.kind == "triangular":
        if args.f is not None:
            raise InputError("triangular instances fix the cardinality budget; drop --f")
        inst = gen_upper_triangular(args.n)
    else:
        if args.m is None:
            raise InputError("generate random needs --m")
        f = parse_fn_spec(args.f, args.n) if args.f else None
        inst = gen_random(args.n, args.m, args.p, f=f, seed=args.seed, name=args.name)
    if args.name:
        inst = Instance(args.name, inst.n_offline, inst.f, list(inst.arrivals))
    if args.out:
        save(inst, args.out)
    else:
        print(indented_json(inst.to_dict()))
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    if args.algorithm != "greedy-ra" and (args.trials > 1 or args.model != "adversarial"):
        raise InputError(f"{args.algorithm} runs once in the stored arrival order; "
                         f"--trials and --model apply to greedy-ra only")
    if args.trials > 1 and args.model == "adversarial":
        raise InputError("--trials repeats one deterministic run under the adversarial "
                         "model; use --model permutation or timestamps")
    inst = load(args.instance)
    opt = offline_opt(inst).value
    alg = args.algorithm

    if alg == "greedy-ra" and args.trials > 1:
        if args.trace:
            raise InputError("--trace holds a single run; drop it or use --trials 1")
        pairs = greedy_trials(inst, args.model, args.model_seed, args.trials)
        primals, duals = [p for p, _ in pairs], [d for _, d in pairs]
        ratios = [_ratio(alg, p, d, opt) for p, d in pairs]
        k = float(args.trials)
        print(f"{alg},{inst.name},{fmt(sum(primals) / k)},{fmt(sum(duals) / k)},"
              f"{fmt(opt)},{fmt(sum(ratios) / k)}")
        print(f"# ratio over {args.trials} trials: min={fmt(min(ratios))} "
              f"mean={fmt(sum(ratios) / k)} max={fmt(max(ratios))}")
        return 0

    trace = run_algorithm(alg, inst, ArrivalModel(args.model, args.model_seed))
    if args.trace:
        save_trace(trace, args.trace)
    ratio = _ratio(alg, trace.primal_value, trace.dual_value, opt)
    print(f"{alg},{inst.name},{fmt(trace.primal_value)},{fmt(trace.dual_value)},"
          f"{fmt(opt)},{fmt(ratio)}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    inst, trace = load(args.instance), load_trace(args.trace)
    checks = check_run(trace, inst, args.tol)
    ok = all(c[1] for c in checks)
    if args.json:
        print(json.dumps({"ok": ok, "checks": [
            {"name": n, "ok": o, "detail": d} for n, o, d in checks]}, indent=2))
    else:
        for name, passed, detail in checks:
            if passed:
                print(f"PASS {name}")
            else:
                print(f"FAIL {name}: {detail}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def cmd_audit(args) -> int:
    inst, trace = load(args.instance), load_trace(args.trace)
    cert = offline_opt(inst)
    rep = audit_charging(trace, cert, inst, tol=args.tol)
    if args.json:
        out = rep.to_dict()
        out["offline_opt"] = cert.value
        print(json.dumps(out, indent=2))
        return 0 if rep.ok else 1
    bad = [r for r in rep.rounds if not r.ok]
    if bad:
        for r in bad[:5]:
            print(f"FAIL round-charge: v={r.v} charge={fmt(r.charge)} "
                  f"< required={fmt(r.required)}")
    else:
        slack = min((r.charge - r.required for r in rep.rounds), default=0.0)
        print(f"PASS round-charges ({len(rep.rounds)} rounds, min slack {fmt(slack)})")
    if rep.global_ok:
        print(f"PASS global-budget (charged {fmt(rep.total_charge)} within "
              f"{fmt(rep.budget)})")
    else:
        print(f"FAIL global-budget: charged {fmt(rep.total_charge)} exceeds "
              f"{fmt(rep.budget)}")
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise InputError(f"unknown algorithm {a!r}")
    if "greedy-ra" not in algorithms and args.model != "adversarial":
        raise InputError(f"--algorithms {args.algorithms!r} run once in the stored arrival "
                         f"order; --model applies to greedy-ra only")
    seeds = parse_seeds(args.seeds)
    f = None
    if args.f:
        if args.kind == "triangular":
            raise InputError("triangular instances fix the cardinality budget; drop --f")
        f = parse_fn_spec(args.f, args.n)

    rows = [SWEEP_CSV_HEADER]
    for seed in seeds:
        if args.kind == "triangular":
            inst = gen_upper_triangular(args.n)
        else:
            if args.m is None:
                raise InputError("sweep random needs --m")
            inst = gen_random(args.n, args.m, args.p, f=f, seed=seed)
        opt = offline_opt(inst).value
        model = ArrivalModel(args.model, seed)
        for alg in algorithms:
            t0 = time.perf_counter()
            trace = run_algorithm(alg, inst, model)
            ms = 0.0 if args.repro else (time.perf_counter() - t0) * 1000.0
            ratio = _ratio(alg, trace.primal_value, trace.dual_value, opt)
            rows.append(f"{alg},{inst.name},{seed},{fmt(trace.primal_value)},"
                        f"{fmt(trace.dual_value)},{fmt(opt)},{fmt(ratio)},{fmt(ms)}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroidmatch",
        description="Online bipartite matching and vertex cover under "
                    "submodular offline budgets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write an instance JSON file")
    p.add_argument("kind", choices=["triangular", "random"])
    p.add_argument("--n", type=int, required=True, help="offline vertices")
    p.add_argument("--m", type=int, help="online vertices (random only)")
    p.add_argument("--p", type=float, default=0.5, help="edge probability")
    p.add_argument("--f", help="budget family spec, e.g. uniform:2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", help="override the instance name")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run one algorithm, print one CSV line: "
                                   + RUN_CSV_COLUMNS)
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--algorithm", required=True,
                   choices=ALGORITHMS)
    p.add_argument("--model", default="adversarial", choices=ArrivalModel.KINDS,
                   help="arrival order model (greedy-ra)")
    p.add_argument("--model-seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1,
                   help="greedy-ra only: aggregate this many runs "
                        "(permutation or timestamps model)")
    p.add_argument("--trace", help="write the run trace JSON here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="replay a trace and check feasibility, "
                                      "duality, and competitive bounds")
    p.add_argument("trace", help="trace JSON path")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit", help="check the charging argument on a "
                                     "waterfilling trace")
    p.add_argument("trace", help="trace JSON path")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("sweep", help="ratio table over seeds, CSV header: "
                                     + SWEEP_CSV_HEADER)
    p.add_argument("--kind", default="random", choices=["triangular", "random"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--f", help="budget family spec (random only)")
    p.add_argument("--seeds", required=True, help="comma list with ranges: 0,2,5-8")
    p.add_argument("--algorithms", required=True,
                   help="comma list from obvc,mobvc,mobm-pd,greedy-ra "
                        "(empty for a header-only file)")
    p.add_argument("--model", default="adversarial", choices=ArrivalModel.KINDS)
    p.add_argument("--repro", action="store_true",
                   help="write ms as 0 so reruns produce identical files")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
