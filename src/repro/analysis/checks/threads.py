"""Thread discipline: kernels parallelise only through :mod:`repro.kernels.pool`.

The threaded kernel tier keeps bit-exact determinism by funnelling every
concurrent dispatch through one module — ``repro.kernels.pool`` — which owns
the shared executors, sizes them from the resolved ``threads`` setting, and
collects results in submission order.  A kernel that spins up its own
``ThreadPoolExecutor`` (or raw ``threading.Thread``) sidesteps all of that:
its worker count would not honour ``threads=``, its results could land
in completion order, and the executor would not be shared or reused.

``THR001`` flags thread/executor creation inside ``repro.kernels.*`` (the
pool module itself is the sanctioned owner and is exempt, mirroring its
``KER001`` exemption in :mod:`repro.analysis.checks.kernels`).
"""

from __future__ import annotations

import ast

from repro.analysis.core import (
    Checker,
    ModuleContext,
    Rule,
    attribute_chain,
    register_checker,
)

__all__ = ["ThreadChecker"]

_KERNEL_PREFIX = "repro.kernels"

#: The one module allowed to create executors (see its module docstring).
_EXEMPT_MODULES = {"repro.kernels.pool"}

#: Constructors that create a thread or a pool of them.
_THREAD_CONSTRUCTORS = {
    "Thread",
    "Timer",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "Pool",
    "ThreadPool",
}


@register_checker
class ThreadChecker(Checker):
    name = "threads"
    RULES = (
        Rule(
            "THR001",
            "kernel creates threads outside repro.kernels.pool",
            "kernels must dispatch concurrent work through "
            "repro.kernels.pool.run_tasks, which owns the shared executors, "
            "honours the threads setting, and keeps results "
            "in submission order for bit-exact determinism",
        ),
    )

    def begin_module(self, ctx: ModuleContext) -> None:
        self._active = (
            ctx.module == _KERNEL_PREFIX
            or ctx.module.startswith(_KERNEL_PREFIX + ".")
        ) and ctx.module not in _EXEMPT_MODULES

    # -------------------------------------------------------------- #
    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if not self._active:
            return
        name = attribute_chain(node.func)
        if name is None:
            return
        last = name.split(".")[-1]
        if last in _THREAD_CONSTRUCTORS:
            ctx.report(
                "THR001",
                node,
                f"`{name}(...)` creates threads inside a kernel module — "
                f"dispatch through repro.kernels.pool.run_tasks instead",
            )
