"""Confidential intangible assets over data collections (§3.2 extension).

The paper's motivating case: "for intangible assets, e.g.,
cryptocurrencies, if enterprise A initiates a transaction in data
collection d_AB that consumes some coins, enterprise B needs to verify
the existence of the coins in data collection d_A" — *without* reading
d_A (B is not allowed to: AB ⊄ A).  The resolution is the classic
confidential-transaction pattern:

- A mints coins on its local collection ``d_A`` (plaintext amount plus
  a Pedersen commitment; only A's executors ever see the amount);
- when A brings a coin into a shared collection ``d_AB``, the *deposit*
  transaction carries the commitment with a proof of opening knowledge
  and a range proof — B's execution nodes verify existence and
  well-formedness without learning the amount;
- confidential transfers inside ``d_AB`` conserve value homomorphically
  (``∏ inputs == ∏ outputs``) with per-output range proofs, so no coin
  can be created or made negative invisibly;
- either party may later ``reveal`` a coin by opening its commitment.

Proof verification happens inside contract execution, which is
deterministic across replicas (proofs travel in the transaction args),
so ordinary Qanaat consensus suffices — exactly the paper's point that
the extension sits on top of the data/consensus layers.

Sharding note: a confidential transfer must see all of its input and
output coins, so asset operations are single-shard (all keys anchored
to the transaction's first key).  Cross-shard confidential transfers
would need cross-shard proof aggregation, which the paper leaves — as
do we — to future work.
"""

from __future__ import annotations

import random
from typing import Any, Iterable

from repro.core.contracts import Contract, StoreView
from repro.crypto.zkp import (
    Commitment,
    EqualityProof,
    OpeningProof,
    PedersenParams,
    RangeProof,
    balances,
    default_params,
    prove_equality,
    prove_opening,
    prove_range,
    verify_equality,
    verify_opening,
    verify_range,
)
from repro.datamodel.transaction import Operation
from repro.errors import AssetError, DataModelError


AMOUNT_BITS = 16  # coins hold 0 .. 65535 units


class ConfidentialAssetContract(Contract):
    """Collection logic for commitment-based assets."""

    name = "assets"

    def __init__(self, params: PedersenParams | None = None):
        self.params = params if params is not None else default_params()

    # ------------------------------------------------------------------
    def execute(self, view: StoreView, op: Operation) -> Any:
        handler = getattr(self, f"_op_{op.name}", None)
        if handler is None:
            raise DataModelError(f"assets contract has no operation {op.name!r}")
        try:
            return handler(view, *op.args)
        except AssetError as exc:
            # Rejected transfers abort cleanly: no partial writes.
            view.writes.clear()
            return f"<rejected: {exc}>"

    @staticmethod
    def _coin_key(coin_id: str) -> str:
        return f"coin:{coin_id}"

    def _load_coin(self, view: StoreView, coin_id: str) -> dict | None:
        return view.get(self._coin_key(coin_id))

    # ------------------------------------------------------------------
    # local-collection side: plaintext mint (visible only to the owner
    # enterprise's executors)
    # ------------------------------------------------------------------
    def _op_mint(self, view, coin_id, amount, commitment_c, owner):
        if self._load_coin(view, coin_id) is not None:
            raise AssetError(f"coin {coin_id!r} already minted")
        if not isinstance(amount, int) or amount < 0:
            raise AssetError("mint amount must be a non-negative integer")
        view.put(
            self._coin_key(coin_id),
            {"c": commitment_c, "owner": owner, "amount": amount, "spent": False},
            routing_key=coin_id,
        )
        return "minted"

    # ------------------------------------------------------------------
    # shared-collection side: commitments + proofs only
    # ------------------------------------------------------------------
    def _op_deposit(self, view, coin_id, commitment_c, opening, range_proof, owner):
        """Bring a committed coin into this collection.

        The counterparty's executors verify the proofs; nobody outside
        the owner enterprise learns the amount (§3.2's verify rule)."""
        if self._load_coin(view, coin_id) is not None:
            raise AssetError(f"coin {coin_id!r} already exists here")
        commitment = Commitment(commitment_c)
        if not isinstance(opening, OpeningProof) or not verify_opening(
            self.params, commitment, opening, context=coin_id
        ):
            raise AssetError("invalid opening proof")
        if not isinstance(range_proof, RangeProof) or not verify_range(
            self.params, commitment, range_proof, AMOUNT_BITS, context=coin_id
        ):
            raise AssetError("invalid range proof")
        view.put(
            self._coin_key(coin_id),
            {"c": commitment_c, "owner": owner, "spent": False},
            routing_key=coin_id,
        )
        return "deposited"

    def _op_transfer(self, view, owner, input_ids, outputs):
        """Spend ``input_ids`` into ``outputs`` (confidentially).

        ``outputs`` is a tuple of ``(coin_id, commitment_c, range_proof,
        recipient)``.  Conservation is the homomorphic product check;
        each output additionally proves its range so no negative-value
        "change" can balance an overdraw.
        """
        input_commitments: list[Commitment] = []
        for coin_id in input_ids:
            coin = self._load_coin(view, coin_id)
            if coin is None:
                raise AssetError(f"input coin {coin_id!r} does not exist")
            if coin["spent"]:
                raise AssetError(f"input coin {coin_id!r} already spent")
            if coin["owner"] != owner:
                raise AssetError(f"input coin {coin_id!r} not owned by {owner!r}")
            input_commitments.append(Commitment(coin["c"]))
        output_commitments: list[Commitment] = []
        for coin_id, commitment_c, range_proof, _recipient in outputs:
            if self._load_coin(view, coin_id) is not None:
                raise AssetError(f"output coin {coin_id!r} already exists")
            commitment = Commitment(commitment_c)
            if not isinstance(range_proof, RangeProof) or not verify_range(
                self.params, commitment, range_proof, AMOUNT_BITS, context=coin_id
            ):
                raise AssetError(f"invalid range proof for {coin_id!r}")
            output_commitments.append(commitment)
        if not balances(self.params, input_commitments, output_commitments):
            raise AssetError("inputs and outputs do not balance")
        first_input = input_ids[0]
        for coin_id in input_ids:
            coin = dict(self._load_coin(view, coin_id))
            coin["spent"] = True
            view.put(self._coin_key(coin_id), coin, routing_key=first_input)
        for coin_id, commitment_c, _range_proof, recipient in outputs:
            view.put(
                self._coin_key(coin_id),
                {"c": commitment_c, "owner": recipient, "spent": False},
                routing_key=first_input,
            )
        return "transferred"

    def _op_link(self, view, coin_id, attested_c, proof):
        """Bind this collection's coin to an attestation elsewhere.

        The §3.2 scenario end to end: A mints on ``d_A`` (commitment
        ``attested_c``), deposits a *re-randomized* commitment into
        ``d_AB``, and proves the two open to the same value.  B's
        executors verify equality without learning the amount — and
        without reading ``d_A``, which they may not."""
        coin = self._load_coin(view, coin_id)
        if coin is None:
            raise AssetError(f"coin {coin_id!r} does not exist")
        if not isinstance(proof, EqualityProof) or not verify_equality(
            self.params,
            Commitment(coin["c"]),
            Commitment(attested_c),
            proof,
            context=coin_id,
        ):
            raise AssetError("invalid equality proof")
        linked = dict(coin, linked=attested_c)
        view.put(self._coin_key(coin_id), linked, routing_key=coin_id)
        return "linked"

    def _op_reveal(self, view, coin_id, amount, blinding):
        """Open a commitment publicly (e.g. for settlement/audit)."""
        coin = self._load_coin(view, coin_id)
        if coin is None:
            raise AssetError(f"coin {coin_id!r} does not exist")
        expected = self.params.commit(amount, blinding)
        if expected.c != coin["c"]:
            raise AssetError("opening does not match the commitment")
        opened = dict(coin)
        opened["amount"] = amount
        view.put(self._coin_key(coin_id), opened, routing_key=coin_id)
        return amount

    def _op_exists(self, view, coin_id):
        """The §3.2 existence check: yes/no plus the commitment —
        never the amount."""
        coin = self._load_coin(view, coin_id)
        if coin is None:
            return {"exists": False}
        return {"exists": True, "c": coin["c"], "spent": coin["spent"]}


class AssetWallet:
    """Client-side key material: amounts and blinding factors.

    The wallet never leaves the client; collections only ever store
    commitments (plus plaintext on the owner's local collection, which
    only the owner's executors replicate).
    """

    def __init__(
        self,
        owner: str,
        params: PedersenParams | None = None,
        seed: int = 0,
    ):
        self.owner = owner
        self.params = params if params is not None else default_params()
        self.rng = random.Random(seed)
        self.coins: dict[str, tuple[int, int]] = {}  # coin_id -> (amount, blinding)

    # ------------------------------------------------------------------
    def track(self, coin_id: str, amount: int, blinding: int) -> None:
        """Adopt a coin (e.g. one received from a counterparty who
        shared the opening out of band)."""
        self.coins[coin_id] = (amount, blinding)

    def commitment(self, coin_id: str) -> Commitment:
        amount, blinding = self.coins[coin_id]
        return self.params.commit(amount, blinding)

    # ------------------------------------------------------------------
    # operation builders
    # ------------------------------------------------------------------
    def mint_op(self, coin_id: str, amount: int) -> Operation:
        if not 0 <= amount < (1 << AMOUNT_BITS):
            raise AssetError(f"amount outside [0, 2^{AMOUNT_BITS})")
        blinding = self.params.random_blinding(self.rng)
        self.coins[coin_id] = (amount, blinding)
        commitment = self.params.commit(amount, blinding)
        return Operation(
            "assets", "mint", (coin_id, amount, commitment.c, self.owner)
        )

    def deposit_op(self, coin_id: str) -> Operation:
        amount, blinding = self.coins[coin_id]
        commitment = self.params.commit(amount, blinding)
        opening = prove_opening(
            self.params, amount, blinding, self.rng, context=coin_id
        )
        range_proof = prove_range(
            self.params, amount, blinding, AMOUNT_BITS, self.rng, context=coin_id
        )
        return Operation(
            "assets",
            "deposit",
            (coin_id, commitment.c, opening, range_proof, self.owner),
        )

    def transfer_op(
        self,
        input_ids: Iterable[str],
        outputs: Iterable[tuple[str, int, str]],
    ) -> Operation:
        """Build a balanced confidential transfer.

        ``outputs`` is ``(coin_id, amount, recipient)`` triples; output
        amounts must sum to the input amounts, and the wallet arranges
        output blindings so the commitments balance homomorphically.
        """
        input_ids = tuple(input_ids)
        outputs = tuple(outputs)
        if not input_ids or not outputs:
            raise AssetError("transfer needs inputs and outputs")
        total_in = sum(self.coins[c][0] for c in input_ids)
        total_out = sum(amount for _, amount, _ in outputs)
        if total_in != total_out:
            raise AssetError(
                f"transfer does not balance: {total_in} in, {total_out} out"
            )
        blinding_in = sum(self.coins[c][1] for c in input_ids) % self.params.q
        out_blindings = [
            self.params.random_blinding(self.rng) for _ in outputs[:-1]
        ]
        out_blindings.append(
            (blinding_in - sum(out_blindings)) % self.params.q
        )
        built = []
        for (coin_id, amount, recipient), blinding in zip(outputs, out_blindings):
            if not 0 <= amount < (1 << AMOUNT_BITS):
                raise AssetError(f"amount outside [0, 2^{AMOUNT_BITS})")
            commitment = self.params.commit(amount, blinding)
            range_proof = prove_range(
                self.params, amount, blinding, AMOUNT_BITS, self.rng,
                context=coin_id,
            )
            built.append((coin_id, commitment.c, range_proof, recipient))
            self.coins[coin_id] = (amount, blinding)
        return Operation(
            "assets", "transfer", (self.owner, input_ids, tuple(built))
        )

    def rerandomize(self, coin_id: str) -> tuple[int, int]:
        """Fresh blinding for a coin; returns the *old* commitment and
        blinding so an equality link can still be proven.

        Re-randomizing before a deposit unlinks the shared-collection
        commitment from the local-collection attestation — observers of
        both cannot correlate them unless a ``link`` is published."""
        amount, old_blinding = self.coins[coin_id]
        old_c = self.params.commit(amount, old_blinding).c
        new_blinding = self.params.random_blinding(self.rng)
        self.coins[coin_id] = (amount, new_blinding)
        return old_c, old_blinding

    def link_op(
        self, coin_id: str, attested_c: int, attested_blinding: int
    ) -> Operation:
        """Prove this coin's current commitment equals ``attested_c``."""
        amount, blinding = self.coins[coin_id]
        if self.params.commit(amount, attested_blinding).c != attested_c:
            raise AssetError("attested commitment does not open with the "
                             "provided blinding")
        proof = prove_equality(
            self.params, amount, blinding, attested_blinding, self.rng,
            context=coin_id,
        )
        return Operation("assets", "link", (coin_id, attested_c, proof))

    def reveal_op(self, coin_id: str) -> Operation:
        amount, blinding = self.coins[coin_id]
        return Operation("assets", "reveal", (coin_id, amount, blinding))
