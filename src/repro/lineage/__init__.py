"""Audit-grade token lineage: custody recorder, outcome contract, store.

The :class:`~repro.core.tokens.TokenLedger` proves the *count* invariant
(exactly T tokens per block, system-wide).  This package proves the
*custody* invariant: every token's lifecycle — minted → transferred →
merged → owned → quiesced — forms an unbroken chain that reaches
exactly one terminal outcome, reconstructible after the fact for any
block and time.

* :mod:`repro.lineage.record` — the recorder (append-only event log +
  live position model);
* :mod:`repro.lineage.contract` — the token outcome contract oracle;
* :mod:`repro.lineage.hooks` — install through the overlay layer;
* :mod:`repro.lineage.store` — indexed on-disk store;
* :mod:`repro.lineage.query` — custody queries
  (``python -m repro.lineage "where was block 0x40's owner token at
  t=4200?"``).
"""

from .contract import LineageContractError, check_outcome_contract
from .hooks import install_recorder
from .record import EVENT_FIELDS, TERMINAL_KINDS, LineageRecorder
from .store import LineageStore

__all__ = [
    "EVENT_FIELDS",
    "TERMINAL_KINDS",
    "LineageRecorder",
    "LineageContractError",
    "check_outcome_contract",
    "install_recorder",
    "LineageStore",
]
