"""Output checks run after every run, outside the timed region.

Each returns a list of problems (empty when the run is correct):

- replicas of every collection-shard chain agree prefix-wise
  (:func:`repro.ledger.validation.verify_global_consistency`);
- exactly-once on the replicas: no request id appears twice in any
  collection-shard chain of any executor's ledger;
- SmallBank conservation: ``send_payment`` moves money, so the checking
  balances of one collection sum, over its shards, to what they
  started at;
- every arrival the generator accepted reached ``Client.submit`` at its
  own virtual time.

The ledger and balance facts are gathered by :func:`cluster_facts`,
which runs wherever the clusters live: in this process, or inside each
worker of a shard-parallel run.
"""

from __future__ import annotations

from typing import Any

from repro.core.contracts import SmallBankContract
from repro.ledger.validation import verify_global_consistency


def executors(deployment: Any, clusters: Any = None) -> list[Any]:
    """Executors of ``clusters`` (cluster names; all when ``None``)."""
    names = deployment.directory.clusters if clusters is None else clusters
    return [
        executor for name in names for executor in deployment.executors_of(name)
    ]


def cluster_facts(deployment: Any, clusters: Any = None) -> dict[str, Any]:
    """What the checks and counters need from the clusters' state: the
    executor ledgers, per-namespace balance drift, executed transactions
    and firewall drops."""
    owned = executors(deployment, clusters)
    firewalls = [
        fw for name, fw in deployment.firewalls.items()
        if clusters is None or name in clusters
    ]
    return {
        "ledgers": [executor.ledger for executor in owned],
        "balances": balances(owned),
        "applied": sum(executor.executed_count for executor in owned),
        "fw_dropped": sum(
            f.dropped_messages for fw in firewalls for row in fw.rows for f in row
        ),
    }


def consistency(ledgers: list[Any]) -> list[str]:
    return verify_global_consistency(ledgers).problems


def exactly_once(ledgers: list[Any]) -> list[str]:
    problems = []
    for ledger in ledgers:
        for label, shard in ledger.chain_keys():
            rids = [r.otx.tx.request_id for r in ledger.chain(label, shard)]
            twice = len(rids) - len(set(rids))
            if twice:
                problems.append(
                    f"{ledger.owner}: {twice} request ids appended twice "
                    f"to {label}#{shard}"
                )
    return problems


def balances(owned: list[Any]) -> dict[tuple[str, int], tuple[int, int]]:
    """``(label, shard) -> (applied version, checking-balance drift)``
    from the most advanced of ``owned``'s replicas of each namespace."""
    base = SmallBankContract.DEFAULT_BALANCE
    newest: dict[tuple[str, int], tuple[int, int]] = {}
    for executor in owned:
        store = executor.store
        for label, shard in store.namespaces():
            version = store.applied_version(label, shard)
            held = newest.get((label, shard))
            if held is None or version > held[0]:
                snapshot = store.latest_snapshot(label, shard)
                drift = sum(
                    value - base for key, value in snapshot.items()
                    if key.startswith("c:")
                )
                newest[(label, shard)] = (version, drift)
    return newest


def conservation(parts: list[dict[tuple[str, int], tuple[int, int]]]) -> list[str]:
    """Checking-balance drift per collection, over the :func:`balances`
    of every part of the deployment."""
    newest: dict[tuple[str, int], tuple[int, int]] = {}
    for part in parts:
        for key, held in part.items():
            if key not in newest or held[0] > newest[key][0]:
                newest[key] = held
    drift: dict[str, int] = {}
    for (label, _), (_, amount) in newest.items():
        drift[label] = drift.get(label, 0) + amount
    return [
        f"collection {label}: checking balances drifted by {total}"
        for label, total in sorted(drift.items())
        if total != 0
    ]


def schedule(arrivals: list[float], sent: list[float]) -> tuple[list[str], float]:
    """Problems plus the largest generator lateness (virtual seconds):
    ``sent`` (at ``Client.submit``) minus the accepted arrival's time."""
    if len(arrivals) != len(sent):
        return (
            [f"{len(sent)} submissions against {len(arrivals)} arrivals"],
            float("inf"),
        )
    late = max((s - t for s, t in zip(sent, arrivals)), default=0.0)
    early = min((s - t for s, t in zip(sent, arrivals)), default=0.0)
    problems = []
    if late != 0.0 or early != 0.0:
        problems.append(
            f"arrivals off schedule: {early * 1e3:.6f}..{late * 1e3:.6f} ms"
        )
    return problems, late
