"""In-memory spans around sbmlab's public functions, for the traced run.

Each target function is replaced by a timing wrapper in its defining
module and in every sbmlab module that imported it by name, so calls
inside the package (ground_parity -> dense_spectrum, sector assembly ->
dmn_table) are recorded as well as calls from the CLI.  A span holds its
name, start, end, parent span and operation id; self time is its duration
minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

# defining module -> functions wrapped there and at every binding site;
# a span is named "<module>.<function>" with the "sbmlab." prefix dropped
TARGETS = {
    "sbmlab.config": ("load_config",),
    "sbmlab.bath": ("discretize", "prefactor", "sum_q_squared"),
    "sbmlab.fockspace": ("enumerate_basis", "lmn_table", "dmn_table"),
    "sbmlab.sectors": ("assemble_sector", "ground_state"),
    "sbmlab.oracle": (
        "assemble_full",
        "dense_spectrum",
        "ground_parity",
        "ground_sigma_z",
        "parity_commutator_norm",
        "parity_matrix",
        "sector_blocks",
        "unitary_U",
    ),
    "sbmlab.nondegeneracy": ("constant_term_contradiction",),
    "sbmlab.cli": (
        "cmd_gap_sweep",
        "cmd_oracle_check",
        "cmd_magnetization_scan",
        "cmd_verify_appendix",
        "sweep_point",
    ),
}

# span name -> what to keep from the call's return value
_ANNOTATE = {
    "fockspace.dmn_table": lambda result: {"dim": result.shape[0]},
    "sectors.ground_state": lambda result: {"iterations": getattr(result, "iterations", 0)},
    "nondegeneracy.constant_term_contradiction": lambda result: {
        "monomials": getattr(result, "monomial_count", 0)
    },
}


@dataclass
class Span:
    name: str
    start: int
    parent: int | None
    op: str
    end: int = 0
    child_ns: int = 0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    @property
    def self_seconds(self) -> float:
        return (self.end - self.start - self.child_ns) / 1e9


class Tracer:
    """Records spans while installed; `op` names the operation under way.

    A sweep point opens its own operation, `<command>[<row index>]`, so
    the solves inside it can be matched with the row the gate judged.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "sbmlab"]
        for module_name, names in TARGETS.items():
            defining = sys.modules.get(module_name)
            for fname in names:
                original = getattr(defining, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module_name.split('.', 1)[1]}.{fname}", original)
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        annotate = _ANNOTATE.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if name == "cli.sweep_point" and args and isinstance(args[0], tuple):
                op = f"{self.op}[{args[0][0]}]"  # sweep_point((index, config))
            else:
                op = spans[parent].op if parent is not None else self.op
            span = Span(name, time.perf_counter_ns(), parent, op)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    span.info.update(annotate(result))
                return result
            except BaseException as exc:
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span.end = time.perf_counter_ns()
                if parent is not None:
                    spans[parent].child_ns += span.end - span.start

        return wrapper


def layer_metrics(spans: list[Span], ok_ops: dict[str, bool]) -> dict[str, float]:
    """Per-layer numbers for one traced pass; ok_ops maps operation id to its gate verdict."""

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.seconds for s in named(name))

    solves = named("sectors.ground_state")
    finished = [s for s in solves if "raised" not in s.info]
    dmn = named("fockspace.dmn_table")
    proofs = named("nondegeneracy.constant_term_contradiction")
    monomials = sum(s.info.get("monomials", 0) for s in proofs)
    proof_s = total("nondegeneracy.constant_term_contradiction")
    return {
        "fockspace.dmn_table_s": total("fockspace.dmn_table"),
        "fockspace.dmn_table_calls": len(dmn),
        "fockspace.dmn_table_mb": sum(s.info.get("dim", 0) ** 2 * 8 for s in dmn) / 2**20,
        "fockspace.lmn_table_s": total("fockspace.lmn_table"),
        "fockspace.enumerate_s": total("fockspace.enumerate_basis"),
        "fockspace.enumerate_calls": len(named("fockspace.enumerate_basis")),
        "sectors.assemble_self_s": sum(s.self_seconds for s in named("sectors.assemble_sector")),
        "sectors.solve_s": total("sectors.ground_state"),
        # the dense path reports 0 iterations, the iterative path at least 1
        "sectors.dense_solves": sum(1 for s in finished if s.info.get("iterations", 0) == 0),
        "sectors.iterative_solves": sum(1 for s in finished if s.info.get("iterations", 0) > 0),
        "sectors.iterations": sum(s.info.get("iterations", 0) for s in finished),
        "sectors.solver_failures": len(solves) - len(finished),
        "sectors.useful_solve_frac": (
            sum(1 for s in solves if ok_ops.get(s.op)) / len(solves) if solves else 0.0
        ),
        "oracle.assemble_s": total("oracle.assemble_full"),
        "oracle.eigh_s": total("oracle.dense_spectrum"),
        "oracle.eigh_calls": len(named("oracle.dense_spectrum")),
        "oracle.commutator_s": total("oracle.parity_commutator_norm"),
        "oracle.blocks_s": total("oracle.sector_blocks"),
        "nondegeneracy.proof_s": proof_s,
        "nondegeneracy.monomials": monomials,
        "nondegeneracy.monomials_per_s": monomials / proof_s if proof_s > 0 else 0.0,
        "config.load_s": total("config.load_config"),
        "bath.discretize_s": total("bath.discretize"),
        "bath.calls": sum(1 for s in spans if s.name.startswith("bath.")),
        "cli.self_s": sum(s.self_seconds for s in spans if s.name.startswith("cli.")),
        "trace.spans": len(spans),
    }


def self_time_table(passes: list[list[Span]]) -> list[tuple[str, float, float, float]]:
    """(name, calls, total s, self s) per span name, each the median over traced passes."""
    names = sorted({s.name for spans in passes for s in spans})
    rows = []
    for name in names:
        per_pass = [[s for s in spans if s.name == name] for spans in passes]
        rows.append((
            name,
            statistics.median(len(p) for p in per_pass),
            statistics.median(sum(s.seconds for s in p) for p in per_pass),
            statistics.median(sum(s.self_seconds for s in p) for p in per_pass),
        ))
    rows.sort(key=lambda row: -row[3])
    return rows


def per_operation_counts(spans: list[Span], name: str) -> dict[str, int]:
    """Calls of one span name grouped by operation id, in first-seen order."""
    counts: dict[str, int] = {}
    for s in spans:
        if s.name == name:
            counts[s.op] = counts.get(s.op, 0) + 1
    return counts
