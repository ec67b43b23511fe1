"""Tests for the combined u&u pass and the selection heuristic."""

import pytest

from repro.analysis import LoopInfo
from repro.ir import Module, parse_function, verify_function
from repro.transforms import (HeuristicParams, HeuristicUU, apply_uu,
                              choose_factor, select_loops, uu_applicable)
from repro.transforms.heuristic import LoopDecision

BRANCHY_LOOP = """
define i64 @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %merge ]
  %acc = phi i64 [ 0, %entry ], [ %nacc, %merge ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %bit = and i64 %i, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %a, label %b
a:
  br label %merge
b:
  br label %merge
merge:
  %v = phi i64 [ 3, %a ], [ 5, %b ]
  %nacc = add i64 %acc, %v
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"""

CONVERGENT_LOOP = """
define void @f(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %header ]
  call void @syncthreads()
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, %n
  br i1 %c, label %header, label %exit
exit:
  ret void
}
"""


class TestChooseFactor:
    def test_largest_factor_within_budget(self):
        params = HeuristicParams(c=1024, u_max=8)
        # p=2, s=10: f(2,10,u) = 10*(2^u - 1); u=6 -> 630 < 1024 < u=7.
        assert choose_factor(2, 10, params) == 6

    def test_none_when_even_factor_two_too_big(self):
        params = HeuristicParams(c=100, u_max=8)
        # p=4, s=30: f(4,30,2) = 150 >= 100.
        assert choose_factor(4, 30, params) is None

    def test_u_max_respected(self):
        params = HeuristicParams(c=10**9, u_max=4)
        assert choose_factor(1, 10, params) == 4

    def test_single_path_loops_grow_linearly(self):
        params = HeuristicParams(c=100, u_max=8)
        # p=1: f(1,s,u) = u*s; s=20 -> u=4 (80 < 100 <= 100 at u=5).
        assert choose_factor(1, 20, params) == 4


class TestApplicability:
    def test_convergent_loop_rejected(self):
        f = parse_function(CONVERGENT_LOOP)
        loop = LoopInfo.compute(f).loops[0]
        assert not uu_applicable(f, loop)

    def test_pragma_loop_rejected(self):
        f = parse_function(BRANCHY_LOOP)
        f.attributes["loop_pragmas"] = {"f:0": "unroll"}
        loop = LoopInfo.compute(f).loops[0]
        assert not uu_applicable(f, loop)

    def test_normal_loop_accepted(self):
        f = parse_function(BRANCHY_LOOP)
        loop = LoopInfo.compute(f).loops[0]
        assert uu_applicable(f, loop)


class TestSelectLoops:
    def test_selects_and_reports(self):
        f = parse_function(BRANCHY_LOOP)
        info = LoopInfo.compute(f)
        decisions = select_loops(f, info, HeuristicParams())
        assert len(decisions) == 1
        d = decisions[0]
        assert d.loop_id == "f:0"
        assert d.factor is not None and d.factor >= 2
        assert d.paths == 2

    def test_inner_selected_blocks_outer(self):
        text = """
define i64 @f(i64 %n, i64 %m) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %inext, %olatch ]
  %ci = icmp slt i64 %i, %n
  br i1 %ci, label %inner, label %exit
inner:
  %j = phi i64 [ 0, %outer ], [ %jnext, %inner ]
  %jnext = add i64 %j, 1
  %cj = icmp slt i64 %jnext, %m
  br i1 %cj, label %inner, label %olatch
olatch:
  %inext = add i64 %i, 1
  br label %outer
exit:
  ret i64 %i
}
"""
        f = parse_function(text)
        info = LoopInfo.compute(f)
        decisions = {d.loop_id: d for d in
                     select_loops(f, info, HeuristicParams())}
        assert decisions["f:1"].factor is not None      # Inner selected.
        assert decisions["f:0"].factor is None          # Outer blocked.
        assert "inner" in decisions["f:0"].reason

    def test_oversized_loop_rejected_with_reason(self):
        f = parse_function(BRANCHY_LOOP)
        info = LoopInfo.compute(f)
        decisions = select_loops(f, info, HeuristicParams(c=5))
        assert decisions[0].factor is None
        assert "c=5" in decisions[0].reason

    def test_convergent_reported(self):
        f = parse_function(CONVERGENT_LOOP)
        info = LoopInfo.compute(f)
        decisions = select_loops(f, info, HeuristicParams())
        assert decisions[0].factor is None
        assert "convergent" in decisions[0].reason


class TestApplyUU:
    def test_claims_loop(self):
        f = parse_function(BRANCHY_LOOP)
        loop = LoopInfo.compute(f).loops[0]
        assert apply_uu(f, loop, 2)
        assert "f:0" in f.attributes["uu_claimed_loops"]
        verify_function(f)

    def test_convergent_loop_untouched(self):
        f = parse_function(CONVERGENT_LOOP)
        before = len(f.blocks)
        loop = LoopInfo.compute(f).loops[0]
        assert not apply_uu(f, loop, 4)
        assert len(f.blocks) == before

    def test_factor_one_unmerges_only(self):
        f = parse_function(BRANCHY_LOOP)
        loop = LoopInfo.compute(f).loops[0]
        assert apply_uu(f, loop, 1)
        verify_function(f)
        fresh = LoopInfo.compute(f).loops[0]
        # Unmerged but not unrolled: 2 latch paths, one body copy.
        assert len(fresh.latches()) == 2


class TestHeuristicPass:
    def test_runs_and_records_decisions(self):
        f = parse_function(BRANCHY_LOOP)
        pass_ = HeuristicUU(HeuristicParams())
        assert pass_.run(f)
        verify_function(f)
        assert any(d.factor for d in pass_.decisions)

    def test_divergence_filter(self):
        # With the (extension) taint filter on, a tid-dependent branch
        # disqualifies the loop — the paper's `complex` avoidance.
        text = """
define i64 @f(i64 %n) {
entry:
  %tid = call i64 @tid.x()
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %next, %merge ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %body, label %exit
body:
  %bit = and i64 %tid, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %a, label %b
a:
  br label %merge
b:
  br label %merge
merge:
  %v = phi i64 [ 3, %a ], [ 5, %b ]
  %next = add i64 %i, 1
  br label %header
exit:
  ret i64 %i
}
"""
        f = parse_function(text)
        info = LoopInfo.compute(f)
        on = select_loops(f, info, HeuristicParams(avoid_divergent=True))
        off = select_loops(f, info, HeuristicParams(avoid_divergent=False))
        assert on[0].factor is None and "divergent" in on[0].reason
        assert off[0].factor is not None


class TestAppliedFlag:
    """LoopDecision.applied distinguishes planned from executed u&u."""

    def test_selected_loops_report_applied(self):
        f = parse_function(BRANCHY_LOOP)
        pass_ = HeuristicUU(HeuristicParams())
        assert pass_.run(f)
        selected = [d for d in pass_.decisions if d.factor is not None]
        assert selected
        assert all(d.applied is True for d in selected)

    def test_unselected_loops_stay_unmarked(self):
        f = parse_function(CONVERGENT_LOOP)
        pass_ = HeuristicUU(HeuristicParams())
        pass_.run(f)
        assert pass_.decisions
        assert all(d.factor is None and d.applied is None
                   for d in pass_.decisions)

    def test_header_not_refound_marks_skip(self, monkeypatch):
        """If relayout loses a selected header, the decision says so."""
        from types import SimpleNamespace

        f = parse_function(BRANCHY_LOOP)
        real_compute = LoopInfo.compute
        calls = {"n": 0}

        def fake_compute(func):
            calls["n"] += 1
            if calls["n"] == 1:
                return real_compute(func)   # selection sees the real loop
            return SimpleNamespace(loops=[])  # re-find comes up empty

        monkeypatch.setattr("repro.transforms.heuristic.analyses",
                            SimpleNamespace(loop_info=fake_compute))
        pass_ = HeuristicUU(HeuristicParams())
        assert pass_.run(f) is False        # nothing actually changed
        selected = [d for d in pass_.decisions if d.factor is not None]
        assert selected
        assert all(d.applied is False for d in selected)
        verify_function(f)                  # and the function is untouched
