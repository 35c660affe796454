"""OnlineTune configuration (hyperparameters + ablation switches)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OnlineTuneConfig"]


@dataclass
class OnlineTuneConfig:
    """Hyperparameters of OnlineTune.

    Ablation switches correspond to the paper's Section 7.3 baselines:
    ``use_workload_context`` / ``use_data_context`` (Figure 14),
    ``use_clustering`` (Figure 14), ``use_whitebox`` / ``use_blackbox`` /
    ``use_subspace`` / ``use_safety`` (Figure 15).
    """

    # candidate generation / selection
    n_candidates: int = 120
    epsilon: float = 0.15         # boundary-exploration probability
    beta: float = 2.0             # confidence multiplier for safety bounds
    selection_beta: float = 0.3   # UCB multiplier for candidate selection
    safety_margin: float = 0.02   # slack below tau for the black box

    # subspace adaptation
    r_init: float = 0.08
    r_max: float = 0.5
    r_min: float = 0.02
    eta_succ: int = 2
    eta_fail: int = 3

    # clustering / model selection
    dbscan_eps: float = 0.6
    dbscan_min_samples: int = 4
    max_cluster_size: int = 200
    nmi_threshold: float = 0.5
    recluster_every: int = 20

    # context featurization
    embedding_components: int = 4
    warmup_snapshots: int = 5

    # fANOVA importance refresh cadence (iterations)
    importance_every: int = 25

    # hot-path acceleration switch: `use_kernel_cache` reuses the Matérn
    # candidate block (and its V @ M GEMM) across iterations while the
    # subspace discretization is unchanged.  It preserves the suggested
    # configurations exactly; it is tunable only so the equivalence
    # suite can run the unaccelerated reference path.
    use_kernel_cache: bool = True

    # knowledge-transfer decay half-life: transferred observations count
    # at half their signature-distance weight once this many native
    # intervals have been observed (see repro.core.transfer_decay)
    transfer_half_life: int = 50

    # ablation switches
    use_workload_context: bool = True
    use_data_context: bool = True
    use_clustering: bool = True
    use_whitebox: bool = True
    use_blackbox: bool = True
    use_subspace: bool = True
    use_safety: bool = True       # master switch (False => vanilla contextual BO)

    def resolved(self) -> "OnlineTuneConfig":
        """Apply the master safety switch to the individual toggles."""
        if self.use_safety:
            return self
        from dataclasses import replace
        return replace(self, use_whitebox=False, use_blackbox=False,
                       use_subspace=False)
