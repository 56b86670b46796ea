"""Byte-stable golden files: serialization format and pinned run values.

These catch accidental schema drift. If a change here is intentional,
regenerate the files under tests/golden/ and review the diff by hand.
"""

import json
import math
import pathlib

import pytest

from matroidmatch.algorithms import load_trace, run_mobm_pd, run_mobvc, save_trace
from matroidmatch.cli import main
from matroidmatch.errors import ParseError
from matroidmatch.instances import (
    gen_random,
    gen_upper_triangular,
    load,
    random_coverage_table,
    save,
)
from matroidmatch.verify import offline_opt

GOLDEN = pathlib.Path(__file__).parent / "golden"


def rebuild_coverage_instance():
    return gen_random(4, 5, 0.6, f=random_coverage_table(4, seed=9), seed=21)


class TestInstanceFiles:
    def test_triangular_bytes(self, tmp_path):
        out = tmp_path / "tri3.json"
        save(gen_upper_triangular(3), out)
        assert out.read_bytes() == (GOLDEN / "tri3.json").read_bytes()

    def test_coverage_bytes(self, tmp_path):
        out = tmp_path / "cov.json"
        save(rebuild_coverage_instance(), out)
        assert out.read_bytes() == (GOLDEN / "random-coverage.json").read_bytes()

    def test_files_use_lf(self):
        for name in ("tri3.json", "random-coverage.json", "tri3-mobvc-trace.json",
                     "tri3-mobvc-trace-v6.json", "tri3-mobvc-trace-v7.json",
                     "tri3-mobvc-trace-v8.json"):
            raw = (GOLDEN / name).read_bytes()
            assert b"\r" not in raw
            assert raw.endswith(b"\n")

    def test_loaded_instances_round_trip(self, tmp_path):
        for name in ("tri3.json", "random-coverage.json"):
            inst = load(GOLDEN / name)
            out = tmp_path / name
            save(inst, out)
            assert out.read_bytes() == (GOLDEN / name).read_bytes()


class TestPinnedValues:
    def test_tri3(self):
        inst = load(GOLDEN / "tri3.json")
        assert offline_opt(inst).value == 3.0
        assert run_mobvc(inst).dual_value == pytest.approx(3.0, abs=1e-12)

    def test_coverage_instance(self):
        inst = load(GOLDEN / "random-coverage.json")
        assert offline_opt(inst).value == pytest.approx(4.358053222258158, abs=1e-12)
        assert run_mobvc(inst).dual_value == pytest.approx(5.937572385085383, abs=1e-12)
        assert run_mobm_pd(inst).primal_value == pytest.approx(3.7532615741451845, abs=1e-12)


class TestTraceFile:
    def test_trace_bytes(self, tmp_path):
        inst = load(GOLDEN / "tri3.json")
        out = tmp_path / "trace.json"
        save_trace(run_mobvc(inst), out)
        assert out.read_bytes() == (GOLDEN / "tri3-mobvc-trace.json").read_bytes()

    def test_format_1_trace_rejected(self, capsys):
        # the trace this file pinned before format 2: per-region member lists,
        # indented JSON, no "format" field
        old = GOLDEN / "tri3-mobvc-trace-v1.json"
        with pytest.raises(ParseError, match=r'trace format 1 \(no "format" field\)'):
            load_trace(old)
        for command in ("verify", "audit"):
            assert main([command, str(old), "--instance", str(GOLDEN / "tri3.json")]) == 2
            err = capsys.readouterr().err
            assert "trace format 1" in err and "re-run" in err

    def test_format_6_trace_rejected(self, capsys):
        # the trace this file pinned before format 7: lo and hi as floats,
        # with no bounds column
        self.assert_refused(capsys, 6)

    def test_format_7_trace_rejected(self, capsys):
        # the trace this file pinned before format 8, which differs from it
        # only in the format digit: a mobvc trace has no x to tabulate
        self.assert_refused(capsys, 7)

    def test_format_8_trace_rejected(self, capsys):
        # the trace this file pinned before format 9, which also stored
        # final.z and an empty matched_offline
        self.assert_refused(capsys, 8)

    def test_format_9_dropped_only_derived_values(self):
        # format 8's final.z rows are exactly 1 - a of its rounds, and every
        # other field is format 9's: the bump dropped nothing a run fixes but
        # the rounds, an empty matched_offline and the int form of an empty sum
        old = json.loads((GOLDEN / "tri3-mobvc-trace-v8.json").read_text(encoding="utf-8"))
        new = json.loads((GOLDEN / "tri3-mobvc-trace.json").read_text(encoding="utf-8"))
        rounds, final = old["rounds"], old["final"]
        assert final.pop("z") == sorted([v, 1.0 - a] for v, a in zip(rounds["v"], rounds["a"]))
        assert final.pop("matched_offline") == []
        assert (old.pop("format"), new.pop("format")) == (8, 9)
        assert type(final["primal_value"]) is int and type(new["final"]["primal_value"]) is float
        assert old == new

    @staticmethod
    def assert_refused(capsys, version):
        old = GOLDEN / f"tri3-mobvc-trace-v{version}.json"
        with pytest.raises(ParseError, match=rf"trace format {version} is not supported.*re-run"):
            load_trace(old)
        for command in ("verify", "audit"):
            assert main([command, str(old), "--instance", str(GOLDEN / "tri3.json")]) == 2
            err = capsys.readouterr().err
            assert f"trace format {version}" in err and "re-run" in err

    def test_trace_loads_consistently(self):
        trace = load_trace(GOLDEN / "tri3-mobvc-trace.json")
        fresh = run_mobvc(load(GOLDEN / "tri3.json"))
        assert trace.dual_value == fresh.dual_value
        assert trace.state.y == fresh.state.y
        assert math.isclose(sum(trace.state.z.values()),
                            sum(fresh.state.z.values()), abs_tol=1e-15)
