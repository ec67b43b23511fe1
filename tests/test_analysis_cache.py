"""The per-function CFG analysis cache and unmerge's incremental state.

Cached analyses are only sound if every IR primitive that edits the CFG
bumps the function's epoch.  These tests hook the pipelines from the test
side (the pass manager's verify-after-every-pass call) and compare each
cached analysis with a fresh computation after every pass; they also
compare unmerge's incremental bookkeeping with whole-function analyses
after every duplication.
"""

import pytest

from repro.analysis import LoopInfo, manager, predecessor_map
from repro.bench import all_benchmarks
from repro.fuzz.corpus import load_corpus
from repro.ir import Module, parse_function
from repro.ir.block import BasicBlock
from repro.ir.instructions import BinaryInst, BranchInst
from repro.ir.parser import parse_module
from repro.transforms import pass_manager, unmerge_loop, unroll_loop
from repro.transforms import unmerge as unmerge_module
from repro.transforms.pipeline import compile_module
from tests.test_partial_unmerge import PROFITABLE, UNPROFITABLE
from tests.test_unmerge import DIAMOND_LOOP, TWO_DIAMONDS

NESTED = """
define i64 @f(i64 %n, i64 %m) {
entry:
  br label %outer
outer:
  %i = phi i64 [ 0, %entry ], [ %inext, %olatch ]
  %acc = phi i64 [ 0, %entry ], [ %acc3, %olatch ]
  %ci = icmp slt i64 %i, %n
  br i1 %ci, label %pre, label %exit
pre:
  %bit = and i64 %i, 1
  %odd = icmp eq i64 %bit, 1
  br i1 %odd, label %a, label %b
a:
  br label %inner
b:
  br label %inner
inner:
  %j = phi i64 [ 0, %a ], [ 1, %b ], [ %jnext, %inner ]
  %a1 = phi i64 [ %acc, %a ], [ %acc, %b ], [ %anext, %inner ]
  %anext = add i64 %a1, %j
  %jnext = add i64 %j, 1
  %cj = icmp slt i64 %jnext, %m
  br i1 %cj, label %inner, label %after
after:
  %big = icmp sgt i64 %anext, 10
  br i1 %big, label %c, label %olatch
c:
  %half = ashr i64 %anext, 1
  br label %olatch
olatch:
  %acc3 = phi i64 [ %half, %c ], [ %anext, %after ]
  %inext = add i64 %i, 1
  br label %outer
exit:
  ret i64 %acc
}
"""


# ---------------------------------------------------------------------------
# Snapshots compared by block identity and order
# ---------------------------------------------------------------------------

def _preds_view(func, preds):
    assert set(map(id, preds)) == set(map(id, func.blocks))
    return [(id(b), [id(p) for p in preds[b]]) for b in func.blocks]


def _domtree_view(func, tree):
    return (id(tree.root),
            [(id(b), tree.is_reachable(b), id(tree.idom(b)),
              [id(c) for c in tree.children(b)]) for b in func.blocks])


def _loops_view(func, info):
    loops = [(l.loop_id, id(l.header), [id(b) for b in l.blocks],
              id(l.parent.header) if l.parent else None,
              [id(c.header) for c in l.children]) for l in info.loops]
    innermost = [info.loop_for(b) for b in func.blocks]
    return (loops, [id(l.header) for l in info.top_level],
            [l.loop_id if l is not None else None for l in innermost])


def _views(func):
    return (_preds_view(func, manager.preds(func)),
            [id(b) for b in manager.rpo(func)],
            _domtree_view(func, manager.domtree(func)),
            _loops_view(func, manager.loop_info(func)))


def assert_cache_coherent(func):
    """Whatever the cache holds equals a fresh computation, and the cache
    is left filled so the next pass's edits are checked too."""
    cached = _views(func)
    func.invalidate_cfg()
    fresh = _views(func)
    assert cached[0] == fresh[0], f"@{func.name}: stale predecessors"
    assert cached[1] == fresh[1], f"@{func.name}: stale reverse postorder"
    assert cached[2] == fresh[2], f"@{func.name}: stale dominator tree"
    assert cached[3] == fresh[3], f"@{func.name}: stale loop info"


@pytest.fixture
def checked_passes(monkeypatch):
    """Check the cache after every pass of a ``verify_each`` pipeline."""
    real_verify = pass_manager.verify_function
    checked = []

    def verify_and_check(func):
        real_verify(func)
        assert_cache_coherent(func)
        checked.append(func.name)

    monkeypatch.setattr(pass_manager, "verify_function", verify_and_check)
    return checked


# ---------------------------------------------------------------------------
# Pipelines over every app and the fuzz corpus
# ---------------------------------------------------------------------------

def _app_cells():
    for bench in all_benchmarks():
        yield pytest.param(bench, "baseline", None, 1, id=f"{bench.name}-baseline")
        yield pytest.param(bench, "uu_heuristic", None, 1,
                           id=f"{bench.name}-uu_heuristic")
        loop_id = bench.loop_ids()[0]
        for factor in (2, 8):
            yield pytest.param(bench, "uu", loop_id, factor,
                               id=f"{bench.name}-uu-{loop_id}x{factor}")


@pytest.mark.parametrize("bench,config,loop_id,factor", list(_app_cells()))
def test_cache_coherent_after_every_pass_on_apps(checked_passes, bench, config,
                                                 loop_id, factor):
    module = bench.build_module()
    compile_module(module, config, loop_id=loop_id, factor=factor,
                   max_instructions=20_000, verify_each=True)
    assert checked_passes


@pytest.mark.parametrize("entry", load_corpus(), ids=lambda e: e.name)
def test_cache_coherent_after_every_pass_on_corpus(checked_passes, entry):
    configs = [("baseline", None, 1), ("uu_heuristic", None, 1)]
    module = parse_module(entry.text)
    for func in module.functions.values():
        for loop in LoopInfo.compute(func).loops:
            configs += [("unroll", loop.loop_id, 4),
                        ("unmerge", loop.loop_id, 1),
                        ("uu", loop.loop_id, 2), ("uu", loop.loop_id, 8)]
    for config, loop_id, factor in configs:
        compile_module(parse_module(entry.text), config, loop_id=loop_id,
                       factor=factor, verify_each=True)
    assert checked_passes


# ---------------------------------------------------------------------------
# Epoch bumps at the IR primitives
# ---------------------------------------------------------------------------

def _diamond():
    mod = Module("t")
    return parse_function(DIAMOND_LOOP, mod)


def _by_name(func, name):
    return next(b for b in func.blocks if b.name == name)


class TestEpoch:
    def test_cache_reused_until_cfg_edit(self):
        f = _diamond()
        preds = manager.preds(f)
        assert manager.preds(f) is preds
        assert manager.domtree(f) is manager.domtree(f)
        # A non-CFG edit keeps every analysis.
        body = _by_name(f, "body")
        inst = BinaryInst("add", f.args[0], f.args[0])
        body.insert(0, inst)
        inst.erase_from_parent()
        assert manager.preds(f) is preds

    @pytest.mark.parametrize("setup,edit", [
        (None, lambda f: _by_name(f, "a").terminator.replace_successor(
            _by_name(f, "merge"), _by_name(f, "b"))),
        (None, lambda f: _by_name(f, "a").terminator.erase_from_parent()),
        (lambda f: _by_name(f, "a").terminator.erase_from_parent(),
         lambda f: _by_name(f, "a").append(BranchInst(_by_name(f, "merge")))),
        (None, lambda f: f.add_block("extra", after=_by_name(f, "a"))),
        (lambda f: f.add_block("extra"),
         lambda f: f.remove_block(_by_name(f, "extra"))),
        (None, lambda f: f.adopt_block(BasicBlock("extra"))),
    ], ids=["replace_successor", "erase_terminator", "append_terminator",
            "add_block", "remove_block", "adopt_block"])
    def test_cfg_edits_bump_epoch(self, setup, edit):
        f = _diamond()
        if setup is not None:
            setup(f)
        epoch = f.cfg_epoch
        edit(f)
        assert f.cfg_epoch > epoch

    def test_block_predecessors_in_function_order(self):
        f = _diamond()
        merge = _by_name(f, "merge")
        assert [p.name for p in merge.predecessors()] == ["a", "b"]
        # A returned list is the caller's own.
        merge.predecessors().clear()
        assert len(merge.predecessors()) == 2


# ---------------------------------------------------------------------------
# Unmerge's incremental state
# ---------------------------------------------------------------------------

@pytest.fixture
def unmerge_states(monkeypatch):
    """Check every unmerge state against whole-function analyses after
    each duplication; yields the states seen."""
    states = []
    real_init = unmerge_module._UnmergeState.__init__
    real_duplicate = unmerge_module._UnmergeState.duplicate_tail

    def init(self, func, loop):
        real_init(self, func, loop)
        states.append(self)
        _assert_state_exact(self)

    def duplicate(self, merge):
        real_duplicate(self, merge)
        _assert_state_exact(self)

    monkeypatch.setattr(unmerge_module._UnmergeState, "__init__", init)
    monkeypatch.setattr(unmerge_module._UnmergeState, "duplicate_tail", duplicate)
    return states


def _assert_state_exact(state):
    func = state.func
    fresh = predecessor_map(func)
    assert _preds_view(func, state.preds) == _preds_view(func, fresh)
    assert state.size == func.instruction_count()
    assert [id(b) for b in state.region_blocks] == \
        [id(b) for b in func.blocks if id(b) in state.region]


@pytest.mark.parametrize("text,header,factor,selective", [
    (DIAMOND_LOOP, "header", 1, False), (TWO_DIAMONDS, "header", 1, False),
    (TWO_DIAMONDS, "header", 3, False), (TWO_DIAMONDS, "header", 4, False),
    (PROFITABLE, "header", 4, True), (UNPROFITABLE, "header", 2, True),
    (UNPROFITABLE, "header", 2, False), (NESTED, "outer", 1, False),
    (NESTED, "outer", 4, False)], ids=[
    "diamond", "two-diamonds", "two-diamonds-x3", "two-diamonds-x4",
    "profitable-x4-selective", "unprofitable-x2-selective",
    "unprofitable-x2", "nested", "nested-x4"])
def test_unmerge_state_matches_fresh_analyses(unmerge_states, text, header,
                                              factor, selective):
    f = parse_function(text, Module("t"))
    header = _by_name(f, header)

    def loop():
        return next(l for l in LoopInfo.compute(f).loops
                    if l.header is header)

    if factor > 1:
        unroll_loop(f, loop(), factor)
    unmerge_loop(f, loop(), selective=selective)
    assert unmerge_states
    state = unmerge_states[-1]
    # Every merge left in the body is in a nested loop or was skipped.
    fresh = predecessor_map(f)
    merges = [b for b in state.region_blocks
              if b is not state.header and id(b) not in state.inner
              and len([p for p in fresh[b] if id(p) in state.region]) >= 2]
    assert len(merges) == state.skipped
    assert not state.pending
