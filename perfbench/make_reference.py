"""Regenerate perfbench/reference.json, the numbers the gate pins at seed 0.

    python3 perfbench/make_reference.py

Run from the root of a checkout of the commit the pins should describe.
It records, for every sweep point of every workload at seed 0, the lowest
even and odd sector energies from a dense scipy.linalg.eigh of the sector
matrices; the sha256 of each proof report file; and the operations that
fail the gate at that commit (its known failures).
"""

from __future__ import annotations

import hashlib
import json
import shutil

import gate
import run
import workloads


def dense_energies(command: workloads.Command) -> list[list[float]]:
    from scipy.linalg import eigh
    from sbmlab.bath import discretize
    from sbmlab.config import load_config
    from sbmlab.fockspace import enumerate_basis
    from sbmlab.sectors import Sector, assemble_sector

    energies = []
    for cfg in load_config(command.argv[command.argv.index("--config") + 1]).expand_sweep():
        bath = discretize(cfg.bath, cfg.discretization)
        basis = enumerate_basis(bath.mode_count, cfg.truncation.n_max)
        energies.append([
            float(eigh(assemble_sector(bath, cfg.model, basis, sector).entries,
                       eigvals_only=True, subset_by_index=[0, 0])[0])
            for sector in (Sector.EVEN, Sector.ODD)
        ])
    return energies


def main() -> None:
    run._limit_blas_threads()
    work = run.STATE / "reference"
    reference = {"seed": 0, "energies": {}, "proof_sha256": {}, "known_failures": {}}
    try:
        loaded = {}
        for workload in workloads.WORKLOADS:
            cli, commands = run.setup(workload, 0, work / workload)
            loaded[workload] = (cli, commands)
            for command in commands:
                if command.kind == "sweep":
                    reference["energies"][command.name] = dense_energies(command)
                elif command.kind == "proof":
                    cli.main(list(command.argv))
                    for path in sorted(command.out.iterdir()):
                        if path.name.startswith("appendix_"):
                            digest = hashlib.sha256(path.read_bytes()).hexdigest()
                            reference["proof_sha256"][path.name] = digest
        for workload, (cli, commands) in loaded.items():
            _, outcomes, _ = run.run_pass(cli, commands, None, 0, reference)
            reference["known_failures"][workload] = {o.op: o.reason for o in outcomes if not o.ok}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {gate.REFERENCE}")


if __name__ == "__main__":
    main()
