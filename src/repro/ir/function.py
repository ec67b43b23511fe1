"""Functions (GPU kernels and device helpers)."""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .block import BasicBlock
from .instructions import Instruction
from .types import FunctionType, Type
from .values import Argument, Value


class Function(Value):
    """A function: arguments plus an ordered list of basic blocks.

    Block order is significant only in that ``blocks[0]`` is the entry block;
    the printer and deterministic iteration rely on the stored order.

    ``cfg_epoch`` counts CFG edits.  The IR primitives that change an edge or
    the block list (terminator successor rewrites, appending or erasing a
    terminator, :meth:`add_block`, :meth:`adopt_block`, :meth:`remove_block`)
    call :meth:`invalidate_cfg`; :meth:`cached_analysis` keeps CFG analyses
    (see :mod:`repro.analysis.manager`) only while the epoch they were
    computed at is current.
    """

    __slots__ = ("blocks", "args", "ftype", "parent", "_name_counts",
                 "attributes", "cfg_epoch", "_analyses", "_analyses_epoch")

    def __init__(self, name: str, ftype: FunctionType,
                 arg_names: Optional[Sequence[str]] = None) -> None:
        super().__init__(ftype, name)
        self.ftype = ftype
        self.blocks: List[BasicBlock] = []
        self.parent = None
        self.attributes: Dict[str, object] = {}
        if arg_names is None:
            arg_names = [f"arg{i}" for i in range(len(ftype.params))]
        if len(arg_names) != len(ftype.params):
            raise ValueError("argument name count does not match signature")
        self.args: List[Argument] = []
        for i, (ptype, pname) in enumerate(zip(ftype.params, arg_names)):
            arg = Argument(ptype, pname, i)
            arg.parent = self
            self.args.append(arg)
        self._name_counts: Dict[str, int] = {}
        self.cfg_epoch = 0
        self._analyses: Dict[str, object] = {}
        self._analyses_epoch = 0

    # -- CFG analysis cache -------------------------------------------------
    def invalidate_cfg(self) -> None:
        """Record a CFG edit: every cached analysis is now stale."""
        self.cfg_epoch += 1

    def cached_analysis(self, key: str,
                        compute: Callable[["Function"], object]) -> object:
        """``compute(self)``, reused until the next CFG edit.

        ``compute`` must not edit the CFG.  The cached object is shared by
        every caller: treat it as read-only.
        """
        if self._analyses_epoch != self.cfg_epoch:
            self._analyses = {}
            self._analyses_epoch = self.cfg_epoch
        value = self._analyses.get(key)
        if value is None:
            value = self._analyses[key] = compute(self)
        return value

    # -- blocks -----------------------------------------------------------
    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str = "", after: Optional[BasicBlock] = None) -> BasicBlock:
        block = BasicBlock(self.unique_name(name or "bb"))
        block.parent = self
        if after is None:
            self.blocks.append(block)
        else:
            index = self._block_index(after)
            self.blocks.insert(index + 1, block)
        self.invalidate_cfg()
        return block

    def adopt_block(self, block: BasicBlock,
                    after: Optional[BasicBlock] = None) -> BasicBlock:
        """Attach an existing (detached) block to this function."""
        block.parent = self
        block.name = self.unique_name(block.name or "bb")
        if after is None:
            self.blocks.append(block)
        else:
            index = self._block_index(after)
            self.blocks.insert(index + 1, block)
        self.invalidate_cfg()
        return block

    def remove_block(self, block: BasicBlock) -> None:
        index = self._block_index(block)
        del self.blocks[index]
        block.parent = None
        self.invalidate_cfg()

    def _block_index(self, block: BasicBlock) -> int:
        # Blocks compare by identity, so list.index finds this very block.
        try:
            return self.blocks.index(block)
        except ValueError:
            raise ValueError(
                f"block {block.name} not in function {self.name}") from None

    # -- names -----------------------------------------------------------
    def unique_name(self, base: str) -> str:
        """Return ``base`` or ``base.N`` such that it is unused in this function."""
        count = self._name_counts.get(base)
        if count is None:
            self._name_counts[base] = 1
            return base
        while True:
            candidate = f"{base}.{count}"
            count += 1
            if candidate not in self._name_counts:
                self._name_counts[base] = count
                self._name_counts[candidate] = 1
                return candidate

    # -- iteration ----------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    def code_size(self) -> int:
        """Cost-model size of the function (proxy for binary size)."""
        return sum(inst.cost for inst in self.instructions())

    def short_name(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        return (f"<Function @{self.name} [{len(self.blocks)} blocks, "
                f"{self.instruction_count()} insts]>")
