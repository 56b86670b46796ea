"""End-to-end tests driving the CLI through main()."""

import argparse
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matroidmatch
from matroidmatch import cli, verify
from matroidmatch.algorithms import load_trace, run_mobvc, run_random_arrival_greedy, save_trace
from matroidmatch.cli import main, parse_fn_spec, parse_seeds
from matroidmatch.constants import ONE_PLUS_ALPHA
from matroidmatch.errors import ParseError, SizeError
from matroidmatch.instances import INSTANCE_SIZE_LIMIT, Arrival, Instance, gen_random, load, save
from matroidmatch.submodular import Cardinality, GroundSet, PartitionBudget, WeightedThreshold


def raise_first_x(tpath, by: float = 0.25) -> tuple[int, int]:
    """Add by to the x entry with the smallest (u, v), the first that verify
    names, of the mobm-pd trace file at tpath: loaded, edited in state.x and
    saved again. Returns that (u, v)."""
    trace = load_trace(tpath)
    key = min(trace.state.x)
    trace.state.x[key] += by
    save_trace(trace, tpath)
    return key


@pytest.fixture
def edge_file(tmp_path):
    g = GroundSet(1)
    inst = Instance("edge", 1, Cardinality(g), [Arrival(0, (0,))])
    path = tmp_path / "edge.json"
    save(inst, path)
    return inst, str(path)


class TestGenerate:
    def test_triangular(self, tmp_path, capsys):
        out = tmp_path / "tri20.json"
        assert main(["generate", "triangular", "--n", "20", "--out", str(out)]) == 0
        inst = load(out)
        assert inst.n_offline == 20
        assert inst.m_online == 20

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["generate", "random", "--n", "8", "--m", "10", "--p", "0.4",
                "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_probability(self, tmp_path, capsys):
        rc = main(["generate", "random", "--n", "4", "--m", "4", "--p", "1.5"])
        assert rc == 2
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_stdout_json(self, capsys):
        assert main(["generate", "random", "--n", "3", "--m", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_offline"] == 3

    def test_family_flag(self, tmp_path):
        out = tmp_path / "p.json"
        rc = main(["generate", "random", "--n", "4", "--m", "4",
                   "--f", "partition:0,0,1,1:1,2", "--out", str(out)])
        assert rc == 0
        assert load(out).f.family == "partition_budget"

    def test_triangular_rejects_family(self, capsys):
        rc = main(["generate", "triangular", "--n", "4", "--f", "uniform:2"])
        assert rc == 2

    def test_missing_m(self, capsys):
        assert main(["generate", "random", "--n", "4"]) == 2

    def test_instance_flags_refused_by_command(self, capsys):
        # generate and sweep build their instances through one helper
        for argv, message in [
                (["generate", "random", "--n", "4"], "generate random needs --m"),
                (["sweep", "--n", "4", "--seeds", "0", "--algorithms", "mobvc"],
                 "sweep random needs --m"),
                (["sweep", "--kind", "triangular", "--n", "4", "--f", "uniform:2",
                  "--seeds", "0", "--algorithms", "mobvc"], "fix the cardinality budget")]:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    @pytest.mark.parametrize("kind", ["triangular", "random"])
    def test_name_flag(self, capsys, kind):
        argv = ["generate", kind, "--n", "3", "--name", "mine"]
        assert main(argv + (["--m", "2"] if kind == "random" else [])) == 0
        assert json.loads(capsys.readouterr().out)["name"] == "mine"

    @pytest.mark.parametrize("spec", ["weighted:inf,1:inf", "weighted:1e308,1e308:inf"])
    def test_infinite_budget_refused(self, tmp_path, capsys, spec):
        # these budgets used to give mobm-pd primal 0 against OPT 2 and a NaN dual
        argv = ["generate", "random", "--n", "2", "--m", "2", "--p", "1.0", "--f", spec]
        assert main(argv) == 2
        assert "f(ground set) = inf; budget values must be finite" in capsys.readouterr().err
        path = tmp_path / "i.json"
        f = {"family": "weighted_threshold", "weights": [math.inf, 1.0], "cap": math.inf}
        path.write_text(json.dumps({"name": "inf", "n_offline": 2, "f": f, "arrivals": []}))
        assert main(["run", str(path), "--algorithm", "mobm-pd"]) == 2
        assert f"error: {path}.f: f(ground set) = inf" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["weighted:inf,1:2", "weighted:1,1:inf", "partition:0,0:inf"])
    def test_infinite_caps_and_weights_run(self, tmp_path, capsys, spec):
        ipath, tpath = str(tmp_path / "i.json"), str(tmp_path / "t.json")
        assert main(["generate", "random", "--n", "2", "--m", "2", "--p", "1.0", "--f", spec,
                     "--out", ipath]) == 0
        for algorithm in ("mobvc", "mobm-pd"):
            assert main(["run", ipath, "--algorithm", algorithm, "--trace", tpath]) == 0
            assert main(["verify", tpath, "--instance", ipath]) == 0
            assert main(["audit", tpath, "--instance", ipath]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestFlagParsers:
    def test_fn_specs(self):
        assert parse_fn_spec("cardinality", 3).family == "cardinality"
        assert parse_fn_spec("uniform:2", 3).k == 2
        assert parse_fn_spec("weighted:1,2,3:2.5", 3).family == "weighted_threshold"
        assert parse_fn_spec("coverage:5", 3).family == "explicit_table"

    def test_fn_spec_errors(self):
        with pytest.raises(ParseError):
            parse_fn_spec("frobnicate", 3)
        with pytest.raises(ParseError):
            parse_fn_spec("uniform:x", 3)
        with pytest.raises(ParseError):
            parse_fn_spec("partition:0,0:1,2", 3)
        with pytest.raises(ParseError):
            parse_fn_spec("weighted:1,2:5", 3)

    def test_seed_lists(self):
        assert parse_seeds("0,2,5-8") == [0, 2, 5, 6, 7, 8]
        assert parse_seeds("-3") == [-3]
        with pytest.raises(ParseError):
            parse_seeds("8-5")
        with pytest.raises(ParseError):
            parse_seeds(",")

    @pytest.mark.parametrize("text", [f"0-{INSTANCE_SIZE_LIMIT}",
                                      f"7,0-{INSTANCE_SIZE_LIMIT - 1}"])
    def test_seed_count_limited(self, capsys, text):
        # the pieces' counts add up before any list is built, which a huge
        # range used to run out of memory on
        message = f"seeds = {INSTANCE_SIZE_LIMIT + 1} exceeds the instance size limit"
        with pytest.raises(SizeError, match=message):
            parse_seeds(text)
        capsys.readouterr()
        assert main(["sweep", "--n", "3", "--m", "2", "--seeds", text,
                     "--algorithms", "obvc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


class TestRun:
    def test_obvc_line(self, edge_file, capsys):
        _, path = edge_file
        assert main(["run", path, "--algorithm", "obvc"]) == 0
        line = capsys.readouterr().out.strip()
        assert line == "obvc,edge,0,1,1,1"

    def test_trace_roundtrip(self, edge_file, tmp_path, capsys):
        _, path = edge_file
        tr = tmp_path / "t.json"
        assert main(["run", path, "--algorithm", "mobm-pd", "--trace", str(tr)]) == 0
        trace = load_trace(tr)
        assert trace.algorithm == "mobm-pd"

    def test_greedy_trials_summary(self, tmp_path, capsys):
        out = tmp_path / "i.json"
        main(["generate", "random", "--n", "4", "--m", "4", "--seed", "3",
              "--out", str(out)])
        rc = main(["run", str(out), "--algorithm", "greedy-ra",
                   "--model", "permutation", "--trials", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("# ratio over 5 trials: min=")

    def test_trials_refuse_trace(self, edge_file, tmp_path, capsys):
        _, path = edge_file
        rc = main(["run", path, "--algorithm", "greedy-ra", "--trials", "3",
                   "--trace", str(tmp_path / "t.json")])
        assert rc == 2

    @pytest.mark.parametrize("model", [[], ["--model", "adversarial"]])
    def test_trials_refuse_adversarial(self, edge_file, capsys, model):
        # the adversarial order ignores the seed: every trial is the same run
        _, path = edge_file
        rc = main(["run", path, "--algorithm", "greedy-ra", "--trials", "3"] + model)
        assert rc == 2
        assert "adversarial" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one(self, edge_file, capsys, trials):
        _, path = edge_file
        rc = main(["run", path, "--algorithm", "greedy-ra", "--model", "permutation",
                   "--trials", trials])
        assert rc == 2
        assert "--trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["obvc", "mobvc", "mobm-pd"])
    @pytest.mark.parametrize("flags", [["--model", "permutation", "--trials", "7"],
                                       ["--model", "timestamps"], ["--trials", "2"]])
    def test_waterfilling_refuses_model_and_trials(self, tmp_path, capsys, algorithm, flags):
        # these runs take the stored order once; the flags used to be ignored
        out = tmp_path / "i.json"
        main(["generate", "random", "--n", "8", "--m", "8", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        rc = main(["run", str(out), "--algorithm", algorithm] + flags)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--trials and --model apply to greedy-ra only" in captured.err

    @pytest.mark.parametrize("algorithm", ["obvc", "mobvc", "mobm-pd"])
    def test_waterfilling_takes_the_defaults_spelled_out(self, edge_file, capsys, algorithm):
        _, path = edge_file
        assert main(["run", path, "--algorithm", algorithm,
                     "--model", "adversarial", "--trials", "1"]) == 0

    def test_trials_refuse_trace_under_permutation(self, edge_file, tmp_path, capsys):
        _, path = edge_file
        rc = main(["run", path, "--algorithm", "greedy-ra", "--model", "permutation",
                   "--trials", "3", "--trace", str(tmp_path / "t.json")])
        assert rc == 2
        assert "--trace holds a single run" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["permutation", "timestamps"])
    def test_trials_trace_refused_before_the_min_cut(self, edge_file, tmp_path, capsys,
                                                     monkeypatch, model):
        # --trials with --trace exits 2 without loading the instance or
        # paying for the offline optimum
        _, path = edge_file
        calls = []
        real_load, real_opt = cli.load, cli.offline_opt
        monkeypatch.setattr(cli, "load", lambda p: calls.append("load") or real_load(p))
        monkeypatch.setattr(cli, "offline_opt", lambda i: calls.append("opt") or real_opt(i))
        argv = ["run", path, "--algorithm", "greedy-ra", "--model", model, "--trials", "3"]
        assert main(argv + ["--trace", str(tmp_path / "t.json")]) == 2
        assert calls == []
        assert main(argv) == 0
        assert calls == ["load", "opt"]

    def test_repeated_block_id_refused(self, tmp_path, capsys):
        # a bit count saw no overlap in [0, 0, 1], and the min cut gave
        # element 0 two arcs: offline_opt 3 and a cover ratio of 2/3
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "name": "dup", "n_offline": 4,
            "f": {"family": "partition_budget", "blocks": [[0, 0, 1], [2, 3]], "caps": [5.0, 2.0]},
            "arrivals": [{"id": 0, "nbrs": [0]}, {"id": 1, "nbrs": [0]},
                         {"id": 2, "nbrs": [0, 1]}]}), encoding="utf-8")
        assert main(["run", str(path), "--algorithm", "mobvc"]) == 2
        assert capsys.readouterr().err == f"error: {path}.f: blocks must be disjoint\n"

    def test_missing_file(self, capsys):
        assert main(["run", "no-such.json", "--algorithm", "obvc"]) == 2


class TestVerify:
    def make_pair(self, tmp_path, algorithm="mobvc"):
        ipath = tmp_path / "i.json"
        main(["generate", "random", "--n", "5", "--m", "6", "--seed", "11",
              "--out", str(ipath)])
        tpath = tmp_path / "t.json"
        main(["run", str(ipath), "--algorithm", algorithm, "--trace", str(tpath)])
        return str(ipath), str(tpath)

    @pytest.mark.parametrize("alg", ["obvc", "mobvc", "mobm-pd", "greedy-ra"])
    def test_clean_traces_pass(self, tmp_path, capsys, alg):
        ipath, tpath = self.make_pair(tmp_path, alg)
        assert main(["verify", tpath, "--instance", ipath]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS replay-match" in out

    def test_corrupted_x_fails(self, tmp_path, capsys):
        ipath, tpath = self.make_pair(tmp_path, "mobm-pd")
        u, v = raise_first_x(tpath)
        assert main(["verify", tpath, "--instance", ipath]) == 1
        out = capsys.readouterr().out
        assert f"FAIL replay-match: state.x[{u},{v}] = " in out

    def test_mismatched_instance(self, tmp_path, capsys):
        ipath, tpath = self.make_pair(tmp_path)
        other = tmp_path / "other.json"
        main(["generate", "triangular", "--n", "5", "--out", str(other)])
        assert main(["verify", tpath, "--instance", str(other)]) == 2

    @pytest.mark.parametrize("command", ["verify", "audit"])
    def test_mismatched_instance_message(self, tmp_path, capsys, command):
        ipath, tpath = self.make_pair(tmp_path)
        other = tmp_path / "other.json"
        main(["generate", "triangular", "--n", "4", "--out", str(other)])
        capsys.readouterr()
        assert main([command, tpath, "--instance", str(other)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: trace is for instance {load(ipath).name!r} (n=5), "
                                f"got 'triangular-4' (n=4)\n")

    @pytest.mark.parametrize("command", ["verify", "audit"])
    def test_instance_of_the_same_name_and_size_refused(self, tmp_path, capsys, command):
        # audit passed a trace run on another instance whose name and
        # n_offline were the same, and verify failed only its replay
        paths = [str(tmp_path / f"{seed}.json") for seed in (21, 22)]
        for seed, path in zip((21, 22), paths):
            main(["generate", "random", "--n", "6", "--m", "9", "--p", "0.45", "--name", "same",
                  "--seed", str(seed), "--out", path])
        tpath = str(tmp_path / "t.json")
        main(["run", paths[0], "--algorithm", "mobvc", "--trace", tpath])
        capsys.readouterr()
        assert main([command, tpath, "--instance", paths[1]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: rounds[0].X: element 2 is not a neighbor of v=0 "
                                "in 'same'\n")

    def test_json_report(self, tmp_path, capsys):
        ipath, tpath = self.make_pair(tmp_path)
        capsys.readouterr()  # drop the run line make_pair printed
        assert main(["verify", tpath, "--instance", ipath, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["ok"] is True
        assert {c["name"] for c in rep["checks"]} >= {"replay-match", "cover-feasible"}

    def corrupt_round(self, tmp_path, delta):
        """Move the old height of a later round's first region by delta."""
        ipath, tpath = self.make_pair(tmp_path, "mobm-pd")
        data = json.loads(open(tpath).read())
        counts = data["rounds"]["regions"]
        i = max(k for k, count in enumerate(counts) if count)
        data["rounds"]["old_height"][sum(counts[:i])] += delta
        open(tpath, "w").write(json.dumps(data))
        return ipath, tpath, i

    def test_first_differing_round_field_named(self, tmp_path, capsys):
        ipath, tpath, i = self.corrupt_round(tmp_path, 0.25)
        capsys.readouterr()
        assert main(["verify", tpath, "--instance", ipath]) == 1
        out = capsys.readouterr().out
        assert f"FAIL replay-match: rounds[{i}].regions[0].old_height = " in out
        assert "!= replayed" in out
        # the replay and pd-rounds, which derives dD from the stored regions,
        # are the checks that read a round record
        assert out.count("FAIL") == 2 and "FAIL pd-rounds" in out

    def test_difference_within_tol_passes(self, tmp_path, capsys):
        ipath, tpath, i = self.corrupt_round(tmp_path, 1e-12)
        assert main(["verify", tpath, "--instance", ipath]) == 0
        ipath, tpath, i = self.corrupt_round(tmp_path, 1e-8)  # above DEFAULT_TOL
        capsys.readouterr()
        assert main(["verify", tpath, "--instance", ipath]) == 1
        assert f"FAIL replay-match: rounds[{i}].regions[0]" in capsys.readouterr().out

    def test_stale_dual_or_repeated_round_refused(self, tmp_path, capsys):
        # a trace rebuilds z from its rounds, so it cannot miss a z row: a
        # final.z left from format 8, or a round v that repeats (z is keyed
        # by it), is refused by name with exit 2
        ipath, tpath = self.make_pair(tmp_path, "mobvc")
        data = json.loads(open(tpath).read())
        v = data["rounds"]["v"]
        stale = json.loads(json.dumps(data))
        stale["final"]["z"] = sorted([vid, 1.0 - a] for vid, a in zip(v, data["rounds"]["a"]))
        repeated = json.loads(json.dumps(data))
        repeated["rounds"]["v"][1] = v[0]
        for edited, named in ((stale, "final.z is stray"), (repeated, f"round v {v[0]} repeats")):
            open(tpath, "w").write(json.dumps(edited))
            capsys.readouterr()
            assert main(["verify", tpath, "--instance", ipath]) == 2
            assert named in capsys.readouterr().err


class TestAudit:
    def test_waterfilling_trace_passes(self, tmp_path, capsys):
        ipath = tmp_path / "i.json"
        main(["generate", "triangular", "--n", "6", "--out", str(ipath)])
        tpath = tmp_path / "t.json"
        main(["run", str(ipath), "--algorithm", "mobvc", "--trace", str(tpath)])
        assert main(["audit", str(tpath), "--instance", str(ipath)]) == 0
        out = capsys.readouterr().out
        assert "PASS round-charges" in out
        assert "PASS global-budget" in out

    def test_greedy_trace_rejected(self, edge_file, tmp_path, capsys):
        inst, ipath = edge_file
        tpath = tmp_path / "t.json"
        save_trace(run_random_arrival_greedy(inst), tpath)
        assert main(["audit", str(tpath), "--instance", ipath]) == 2

    def test_refused_before_the_min_cut(self, tmp_path, capsys, monkeypatch):
        # a mismatched trace and a greedy-ra trace exit 2
        # without paying for the offline optimum
        ipath, other = str(tmp_path / "i.json"), str(tmp_path / "other.json")
        vc, greedy = str(tmp_path / "vc.json"), str(tmp_path / "greedy.json")
        for argv in (["generate", "triangular", "--n", "5", "--out", ipath],
                     ["generate", "triangular", "--n", "4", "--out", other],
                     ["run", ipath, "--algorithm", "mobvc", "--trace", vc],
                     ["run", ipath, "--algorithm", "greedy-ra", "--trace", greedy]):
            assert main(argv) == 0
        calls = []
        real = verify.offline_opt
        monkeypatch.setattr(verify, "offline_opt", lambda inst: calls.append(inst) or real(inst))
        for argv in ([vc, "--instance", other], [greedy, "--instance", ipath]):
            assert main(["audit"] + argv) == 2
        assert calls == []
        assert main(["audit", vc, "--instance", ipath]) == 0
        assert len(calls) == 1

    def test_corrupt_round_fails(self, tmp_path, capsys):
        # flattening a region to zero charge breaks the per-round bound
        ipath = tmp_path / "i.json"
        main(["generate", "random", "--n", "2", "--m", "1", "--p", "1",
              "--out", str(ipath)])
        tpath = tmp_path / "t.json"
        main(["run", str(ipath), "--algorithm", "mobvc", "--trace", str(tpath)])
        data = json.loads(open(tpath).read())
        rounds = data["rounds"]
        for j in range(rounds["regions"][0]):
            rounds["new_height"][j] = rounds["old_height"][j]
        open(tpath, "w").write(json.dumps(data))
        assert main(["audit", str(tpath), "--instance", str(ipath)]) == 1
        assert "FAIL round-charge: v=0" in capsys.readouterr().out

    def test_corrupt_budget_fails(self, tmp_path, capsys):
        # duplicating the only charge region doubles the total past alpha
        ipath = tmp_path / "i.json"
        main(["generate", "random", "--n", "2", "--m", "2", "--p", "1",
              "--f", "uniform:1", "--out", str(ipath)])
        tpath = tmp_path / "t.json"
        main(["run", str(ipath), "--algorithm", "mobvc", "--trace", str(tpath)])
        data = json.loads(open(tpath).read())
        rounds = data["rounds"]
        assert rounds["regions"][0], "expected the first round to pour water"
        rounds["regions"][0] += 1
        for key in ("lo", "hi", "old_height", "new_height"):
            rounds[key].insert(0, rounds[key][0])
        open(tpath, "w").write(json.dumps(data))
        assert main(["audit", str(tpath), "--instance", str(ipath)]) == 1
        assert "FAIL global-budget" in capsys.readouterr().out


class TestBeyondBruteForce:
    """n = 30 is past the 2^n enumeration limit (16) of a brute-force optimum."""

    @staticmethod
    def lp_opt(inst, blocks, caps):
        """Fractional matching optimum by linear programming over the
        partition-matroid polytope x_u <= 1, x(B) <= cap_B."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        edges = inst.edges()
        rows = [[1.0 if vid == v else 0.0 for _, vid in edges] for v in range(inst.m_online)]
        rows += [[1.0 if u == w else 0.0 for u, _ in edges] for w in range(inst.n_offline)]
        rows += [[1.0 if u in block else 0.0 for u, _ in edges] for block in blocks]
        rhs = [1.0] * (inst.m_online + inst.n_offline) + list(caps)
        res = linprog(-np.ones(len(edges)), A_ub=np.array(rows), b_ub=np.array(rhs),
                      bounds=(0, None), method="highs")
        assert res.status == 0
        return -res.fun

    @pytest.mark.parametrize("algorithm", ["mobvc", "mobm-pd"])
    @pytest.mark.parametrize("family", ["cardinality", "partition"])
    def test_run_verify_audit(self, tmp_path, capsys, algorithm, family):
        n = 30
        if family == "cardinality":
            spec, blocks, caps = "cardinality", [], []
        else:
            ids = [u % 3 for u in range(n)]
            caps = [4, 5, 6]
            spec = f"partition:{','.join(map(str, ids))}:{','.join(map(str, caps))}"
            blocks = [{u for u in range(n) if ids[u] == j} for j in range(3)]
        ipath, tpath = tmp_path / "i.json", tmp_path / "t.json"
        assert main(["generate", "random", "--n", str(n), "--m", "40", "--p", "0.3",
                     "--f", spec, "--out", str(ipath)]) == 0
        inst = load(ipath)
        assert [a.nbrs for a in inst.arrivals] == [
            a.nbrs for a in gen_random(n, 40, 0.3).arrivals]
        capsys.readouterr()
        assert main(["run", str(ipath), "--algorithm", algorithm,
                     "--trace", str(tpath)]) == 0
        opt = float(capsys.readouterr().out.split(",")[4])
        assert opt == pytest.approx(self.lp_opt(inst, blocks, caps), abs=1e-6)
        assert main(["verify", str(tpath), "--instance", str(ipath)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert main(["audit", str(tpath), "--instance", str(ipath)]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestSweep:
    def test_rows_and_bound(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--kind", "random", "--n", "6", "--m", "6",
                   "--seeds", "1-5", "--algorithms", "obvc,mobvc",
                   "--repro", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "algorithm,instance,seed,primal,dual,opt,ratio,ms"
        assert len(lines) == 11
        for line in lines[1:]:
            ratio = float(line.split(",")[6])
            assert ratio <= ONE_PLUS_ALPHA + 1e-6

    def test_repro_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--kind", "random", "--n", "5", "--m", "5",
                "--seeds", "1,2", "--algorithms", "mobvc,mobm-pd", "--repro"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_only(self, capsys):
        rc = main(["sweep", "--kind", "triangular", "--n", "4",
                   "--seeds", "0", "--algorithms", ""])
        assert rc == 0
        assert capsys.readouterr().out == "algorithm,instance,seed,primal,dual,opt,ratio,ms\n"

    def test_unknown_algorithm(self, capsys):
        rc = main(["sweep", "--kind", "triangular", "--n", "4",
                   "--seeds", "0", "--algorithms", "simplex"])
        assert rc == 2

    @pytest.mark.parametrize("algorithms", ["obvc,mobvc,mobm-pd", ""])
    @pytest.mark.parametrize("model", ["permutation", "timestamps"])
    def test_model_refused_without_greedy(self, capsys, algorithms, model):
        # these runs take the stored order once; the flag used to be ignored
        rc = main(["sweep", "--kind", "triangular", "--n", "4", "--seeds", "0",
                   "--algorithms", algorithms, "--model", model])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--model applies to greedy-ra only" in captured.err

    def test_model_taken_with_greedy(self, capsys):
        rc = main(["sweep", "--kind", "triangular", "--n", "4", "--seeds", "0,1",
                   "--algorithms", "obvc,greedy-ra", "--model", "permutation", "--repro"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 5


class TestGreedyAtLargeN:
    """greedy-ra certifies laminar matroid budgets in closed form, so it and
    verify run past the 16 elements an exhaustive check allows."""

    def test_partition_run_and_verify(self, tmp_path, capsys):
        g = GroundSet(200)
        f = PartitionBudget(g, [range(b, 200, 10) for b in range(10)], [6] * 10)
        inst_path, trace_path = tmp_path / "i.json", tmp_path / "t.json"
        save(gen_random(200, 400, 0.3, f), inst_path)
        assert main(["run", str(inst_path), "--algorithm", "greedy-ra", "--model",
                     "permutation", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(trace_path), "--instance", str(inst_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS replay-match", "PASS dual-consistent", "PASS matching-feasible",
            "PASS primal-consistent", "PASS weak-duality"]

    def test_weighted_non_matroid_refused(self, tmp_path, capsys):
        g = GroundSet(200)
        path = tmp_path / "i.json"
        save(gen_random(200, 400, 0.3, WeightedThreshold(g, [2.0] * 200, 4.0)), path)
        assert main(["run", str(path), "--algorithm", "greedy-ra"]) == 2
        err = capsys.readouterr().err
        assert "requires a matroid rank budget" in err
        assert "limited to n" not in err


class TestCheckOutputPins:
    """sha256 of the stdout of verify and audit, text and --json, on fixed
    runs and on one corrupted trace: these bytes are the checks' interface,
    and moving the checks between modules must not change them."""

    PARTITION = "partition:0,0,1,1,2,2:1,2,1"
    VERIFY = {
        ("obvc", False): "ccb0f9b6377f00dded64021cddb69a4694b6fee7e60f63731731c0f1941ac020",
        ("obvc", True): "47f552b116bdde9174c10495fc9f2dfd1d1d585e4ab4bbd4b9e5ec67cfc859a2",
        ("mobvc", False): "ccb0f9b6377f00dded64021cddb69a4694b6fee7e60f63731731c0f1941ac020",
        ("mobvc", True): "7b0c34d1baad29f1fe2eeb8b2232050d82132662b3ccb19e23dfb83b3bf3ae09",
        ("mobm-pd", False): "541ad8bd83dd85b8da081a0e14709e18146380e0f8ae84a2b91e250271c09f82",
        ("mobm-pd", True): "07b3ba0f365f13737a22f3bb2ac7ac5b80e0df597e47a5f9723614f4f312b470",
        ("greedy-ra", False): "6da0d9aa141c702f7971a43ac50eb82f32dbbe8e96c759ece6ea66a95de01e91",
        ("greedy-ra", True): "82e9ab2fc1a7b75128e38f2bb0c2bfa1c789cabaea282c402f2b6b21c43d7af0",
        ("corrupt", False): "94d8a8bda004c951b0072e994a5acbbe5e759510a2a9430084a7b0500922e6b0",
        ("corrupt", True): "10f9ee64de0f15cd14949e7e057fd40b13fd15547e89ada84d4972659f714a04",
    }
    AUDIT = {
        ("mobvc", False): "8ddf4cddccd26695177f11d71dc4aaa3dcb4f3a0b2e189ab390fa78f86597407",
        ("mobvc", True): "14d5a1c9a12805d46b00694267c2f6c064b7da7d69b1198ad5859ee91a02d0a7",
        ("mobm-pd", False): "8ddf4cddccd26695177f11d71dc4aaa3dcb4f3a0b2e189ab390fa78f86597407",
        ("mobm-pd", True): "14d5a1c9a12805d46b00694267c2f6c064b7da7d69b1198ad5859ee91a02d0a7",
        ("corrupt", False): "976a791cba9f4a1d3e54df67291926ce8ae04a8a156262f2f7b16ebc304f4d8a",
        ("corrupt", True): "5b8802d6e2772bfe6dd6d29cbc45b319631466d0ab4d34b851324f5e6a695e4b",
    }

    def make_pair(self, tmp_path, algorithm):
        """Instance and trace files of one run: obvc on a cardinality budget,
        the others on a partition matroid; 'corrupt' is a mobm-pd trace with
        halved potentials, a matching entry moved and its first
        round's regions flattened."""
        spec = "cardinality" if algorithm == "obvc" else self.PARTITION
        ipath, tpath = tmp_path / "i.json", tmp_path / "t.json"
        assert main(["generate", "random", "--n", "6", "--m", "9", "--p", "0.45",
                     "--seed", "21", "--f", spec, "--out", str(ipath)]) == 0
        run_as = "mobm-pd" if algorithm == "corrupt" else algorithm
        assert main(["run", str(ipath), "--algorithm", run_as, "--trace", str(tpath)]) == 0
        if algorithm == "corrupt":
            raise_first_x(tpath)
            data = json.loads(tpath.read_text(encoding="utf-8"))
            data["final"]["y"] = [v / 2 for v in data["final"]["y"]]
            rounds = data["rounds"]
            for j in range(rounds["regions"][0]):  # the first round's charge drops to 0
                rounds["new_height"][j] = rounds["old_height"][j]
            tpath.write_text(json.dumps(data), encoding="utf-8")
        return str(ipath), str(tpath)

    def stdout_sha(self, capsys, argv, rc):
        capsys.readouterr()
        assert main(argv) == rc
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    @pytest.mark.parametrize("algorithm", ["obvc", "mobvc", "mobm-pd", "greedy-ra", "corrupt"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_verify(self, tmp_path, capsys, algorithm, as_json):
        ipath, tpath = self.make_pair(tmp_path, algorithm)
        argv = ["verify", tpath, "--instance", ipath] + (["--json"] if as_json else [])
        rc = 1 if algorithm == "corrupt" else 0
        assert self.stdout_sha(capsys, argv, rc) == self.VERIFY[algorithm, as_json]

    @pytest.mark.parametrize("algorithm", ["mobvc", "mobm-pd", "corrupt"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_audit(self, tmp_path, capsys, algorithm, as_json):
        ipath, tpath = self.make_pair(tmp_path, algorithm)
        argv = ["audit", tpath, "--instance", ipath] + (["--json"] if as_json else [])
        rc = 1 if algorithm == "corrupt" else 0
        assert self.stdout_sha(capsys, argv, rc) == self.AUDIT[algorithm, as_json]


class TestSharedParser:
    """main builds its parser once per process and reuses it, so a call
    must not see anything an earlier call left behind."""

    # sha256 of --help at COLUMNS=80 on CPython 3.11, as the parser printed
    # it when every main call built its own
    HELP = {
        (): "b2d3ec81b2abd826567a11fef0fc5117d908da01259e6a0718e1c50553923933",
        ("generate",): "58536d219b6e3129a8529bd62e65c706bbdb74a69b2e3dba223e1c8155b55a1e",
        ("run",): "0eab045b1b4fded29d35a28041e5fd38b92a9f9b2fe2dc38fb1023ce24d25a51",
        ("verify",): "7026f59e93f9af782d02a2fc5467d94ec4ab7546b51b28563bff3939584ce335",
        ("audit",): "4c2571c32c8ae3470a683f98ed2a04263e5dd5ed20346fcaece7b9398b039a8c",
        ("sweep",): "399233a3464dd6e3d86dc0fe9b2384ce52ae817cced019535356ffbc8c532bac",
    }

    @staticmethod
    def call(capsys, argv):
        """(exit code, stdout, stderr) of one in-process main call."""
        capsys.readouterr()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_calls_in_sequence_match_calls_alone(self, tmp_path, capsys):
        ipath, tpath = str(tmp_path / "i.json"), str(tmp_path / "t.json")
        assert main(["generate", "random", "--n", "5", "--m", "6", "--seed", "11",
                     "--f", "uniform:2", "--out", ipath]) == 0
        assert main(["run", ipath, "--algorithm", "mobm-pd", "--trace", tpath]) == 0
        sequence = [
            ["run", ipath, "--algorithm", "greedy-ra", "--trials", "zero"],
            ["run", ipath, "--algorithm", "greedy-ra", "--model", "timestamps",
             "--model-seed", "3", "--trials", "5"],
            ["run", ipath, "--algorithm", "greedy-ra"],
            ["verify", tpath, "--instance", ipath, "--json"],
            ["verify", tpath, "--instance", ipath],
        ]
        alone = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            alone.append(self.call(capsys, argv))
        cli.build_parser.cache_clear()
        together = [self.call(capsys, argv) for argv in sequence]
        assert cli.build_parser.cache_info().misses == 1
        assert together == alone
        assert [rc for rc, _, _ in alone] == [2, 0, 0, 0, 0]
        assert "invalid int value: 'zero'" in alone[0][2]
        assert alone[1][1].count("\n") == 2 and alone[2][1].count("\n") == 1
        assert alone[3][1].startswith("{") and alone[4][1].startswith("PASS ")

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text_pinned(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        rc, out, _ = self.call(capsys, list(command) + ["--help"])
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.HELP[command]

    def test_ten_calls_build_the_parser_once(self, edge_file, capsys, monkeypatch):
        _, path = edge_file
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for _ in range(10):
            assert main(["run", path, "--algorithm", "obvc"]) == 0
        assert built.count("matroidmatch") == 1

    def test_python_dash_m(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-m", "matroidmatch", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stdout == self.call(capsys, ["--help"])[1]


def test_one_tolerance():
    # every check compares against DEFAULT_TOL: no exported callable and no
    # subcommand lets a caller pick another
    exported = [getattr(matroidmatch, name) for name in matroidmatch.__all__]
    takes_tol = [obj for obj in exported if callable(obj)
                 and not (isinstance(obj, type) and issubclass(obj, Exception))
                 and "tol" in inspect.signature(obj).parameters]
    assert takes_tol == []
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert [name for name, p in sub.choices.items()
            if "--tol" in p._option_string_actions] == []
