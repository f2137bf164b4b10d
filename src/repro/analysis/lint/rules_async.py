"""R4 — async/fork safety: never block the loop, always detach the fork.

The PR 8 server multiplexes every client onto one asyncio event loop:
a single synchronous ``time.sleep`` or ``subprocess.run`` inside an
``async def`` stalls every connection, heartbeat deadline and drain ack
at once — a failure mode invisible in unit tests and fatal in a soak.
And the same PR's hardest bugs were fork hygiene: a forked worker
inherits the server's asyncio signal plumbing (the wakeup fd is the
*parent's* self-pipe, so a reclaim SIGTERM aimed at the worker would
ghost-drain the server) and the listening socket (an orphan worker
keeps the port bound after a SIGKILL, blocking the restart).  The
supervisor's ``_worker_entry`` restores ``SIG_DFL`` dispositions,
detaches the wakeup fd and closes the inherited listen fd (R10 checks it).

Two checks over the experiments package:

* **no blocking calls in coroutines** — ``time.sleep``, the synchronous
  ``subprocess`` family and ``os.system`` are flagged inside ``async
  def`` bodies (nested synchronous ``def``s are excluded: they execute
  wherever they are *called*, e.g. in an executor);
* **fork-entry hygiene** — in any module that imports :mod:`asyncio`,
  every function handed to ``multiprocessing.Process(target=...)`` must
  (transitively, intra-module) call ``signal.set_wakeup_fd`` and
  restore handlers via ``signal.signal`` before running work.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.lint.framework import (
    Finding,
    FunctionInfo,
    ModuleInfo,
    RepoIndex,
    Rule,
    in_scope,
)

SCOPE = ("experiments/",)

#: Synchronous calls that stall the event loop.  ``time.sleep`` is the
#: classic; the subprocess family blocks until child exit; ``os.system``
#: is both.  File I/O and ``os.fsync`` are deliberately NOT listed: the
#: journal's fsync-per-append inside the server is a considered
#: durability-over-latency tradeoff.
BLOCKING_CALLS = {
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.getoutput",
    "os.system", "os.wait", "os.waitpid",
    "socket.create_connection",
}


class AsyncSafetyRule(Rule):
    rule_id = "R4"
    name = "async-fork-safety"
    description = ("no blocking calls inside async def; fork targets in "
                   "asyncio modules must restore signal handlers and detach "
                   "the wakeup fd")

    def check(self, index: RepoIndex) -> List[Finding]:
        findings: List[Finding] = []
        for relpath, module in index.modules.items():
            if not in_scope(relpath, SCOPE):
                continue
            findings.extend(self._check_blocking(module))
            if "asyncio" in module.imports:
                findings.extend(self._check_fork_targets(index, module))
        return findings

    # -- blocking calls in coroutines ---------------------------------- #
    def _check_blocking(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for func in module.functions.values():
            if not func.is_async:
                continue
            for call in func.calls:
                origin = module.from_imports.get(call.dotted, call.dotted)
                if origin in BLOCKING_CALLS:
                    findings.append(Finding(
                        rule=self.rule_id, path=module.relpath,
                        line=call.line, symbol=func.qualname,
                        detail=f"blocking:{origin}",
                        message=f"blocking call {origin}() inside async "
                                f"{func.qualname} — it stalls every client, "
                                f"heartbeat deadline and drain ack on the "
                                f"loop; use the asyncio equivalent or an "
                                f"executor"))
        return findings

    # -- fork-entry hygiene -------------------------------------------- #
    def _fork_targets(self, module: ModuleInfo) -> List[str]:
        """Names of module functions used as ``Process(target=...)``."""
        import ast
        targets: List[str] = []
        for func in module.functions.values():
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = (callee.attr if isinstance(callee, ast.Attribute)
                        else callee.id if isinstance(callee, ast.Name)
                        else "")
                if name != "Process":
                    continue
                for keyword in node.keywords:
                    if (keyword.arg == "target"
                            and isinstance(keyword.value, ast.Name)
                            and keyword.value.id in module.functions):
                        targets.append(keyword.value.id)
        return targets

    def _check_fork_targets(self, index: RepoIndex,
                            module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for target in sorted(set(self._fork_targets(module))):
            func = module.functions[target]
            missing = [requirement for requirement, predicate in (
                ("signal.set_wakeup_fd", _calls("signal.set_wakeup_fd")),
                ("signal.signal", _calls("signal.signal")),
            ) if index.reaches(module.relpath, target, predicate) is None]
            if missing:
                findings.append(Finding(
                    rule=self.rule_id, path=module.relpath,
                    line=func.line, symbol=func.qualname,
                    detail="fork-hygiene:" + ",".join(missing),
                    message=f"fork target {func.qualname} in an asyncio "
                            f"module never calls {' / '.join(missing)} — "
                            f"the worker inherits the server's signal "
                            f"wakeup fd and handlers, so a SIGTERM aimed at "
                            f"it ghost-drains the parent (the PR 8 lease-"
                            f"reclaim bug class)"))
        return findings


def _calls(origin_name: str):
    def predicate(func: FunctionInfo) -> Optional[int]:
        for call in func.calls:
            if call.dotted == origin_name:
                return call.line
        return None
    return predicate
