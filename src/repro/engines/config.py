"""Engine configuration knobs.

Most fields default to "the engine's own choice" (None) so experiments
only override what a figure varies: Figure 13/14 toggle DBMS M's index
kind and compilation, Section 7 raises ``n_partitions``, the node-size
ablation overrides ``node_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    """Per-instance engine settings."""

    # Index structure override ('btree' | 'cc_btree' | 'art' | 'hash');
    # None picks the engine's documented default for the workload.
    index_kind: str | None = None
    # Cache-conscious node size override.
    node_bytes: int | None = None
    # Stored-procedure compilation; None = engine default (HyPer: always
    # on, VoltDB / disk engines: always off, DBMS M: on but toggleable).
    compilation: bool | None = None
    # Data partitions (VoltDB/HyPer); single-threaded runs use 1.
    n_partitions: int = 1
    # VoltDB's single-sited optimisation: when False every transaction
    # pays the multi-partition coordination path (paper's ~60% note).
    single_sited: bool = True
    # Transaction retry budget on abort (lock conflict / validation).
    max_retries: int = 5

    def __post_init__(self) -> None:
        if self.n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
