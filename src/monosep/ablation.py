"""Ablation suites: train small config variants on shared data and tabulate.

Each suite is a list of named config deltas applied to a base ModelConfig.
All variants in a run share the same dataset and seeds, so the only thing
that differs between rows is the configuration under study. Reported values
come from synthetic desk-scale runs; row ordering is informational.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

from .config import ModelConfig, TrainConfig
from .errors import ConfigError
from .model import build_model
from .train import dataset_scores, split_dataset, train


@dataclass
class AblationRow:
    variant: str
    n_params: int
    steps: int
    loss: float
    si_sdri: float


@dataclass
class AblationReport:
    suite: str
    rows: list[AblationRow]

    _COLUMNS = ("variant", "params", "steps", "loss", "si_sdri")

    def _cells(self):
        for r in self.rows:
            yield (r.variant, str(r.n_params), str(r.steps),
                   f"{r.loss:.4f}", f"{r.si_sdri:.4f}")

    def to_text(self) -> str:
        table = [self._COLUMNS, *self._cells()]
        widths = [max(len(row[i]) for row in table)
                  for i in range(len(self._COLUMNS))]
        lines = [f"suite={self.suite}"]
        for row in table:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(self._COLUMNS)
        for cells in self._cells():
            writer.writerow(cells)
        return out.getvalue()


SUITES = {
    "attention_mode": [
        ("joint", {"attention_mode": "joint"}),
        ("local_only", {"attention_mode": "local_only"}),
        ("global_only", {"attention_mode": "global_only"}),
    ],
    "gating": [
        ("triple", {"single_gate": False}),
        ("single", {"single_gate": True}),
    ],
    "convm_vs_dense": [
        ("convm", {}),
        ("dense_uv", {"dense_uv": True}),
        ("dense_qk", {"dense_qk": True}),
        ("dense_both", {"dense_uv": True, "dense_qk": True}),
    ],
    "phi": [
        ("relu", {"gate_phi": "relu"}),
        ("gelu", {"gate_phi": "gelu"}),
        ("swish", {"gate_phi": "swish"}),
        ("bilinear", {"gate_phi": "bilinear"}),
        ("sigmoid", {"gate_phi": "sigmoid"}),
    ],
    "K2": [(f"K2={k}", {"dw_kernel": k}) for k in (3, 7, 15)],
    "D": [(f"D={d}", {"attn_dim": d}) for d in (4, 8, 16)],
    "P": [(f"P={p}", {"chunk_size": p}) for p in (4, 8, 16)],
}


def run_ablation(
    suite: str,
    base_cfg: ModelConfig,
    train_cfg: TrainConfig,
    data,
    budget: int = 50,
    log=None,
) -> AblationReport:
    """Train every variant of ``suite`` for ``budget`` optimizer steps on a
    shared dataset; returns a report with one row per variant."""
    if suite not in SUITES:
        raise ConfigError(
            f"unknown ablation suite {suite!r}; expected one of "
            f"{sorted(SUITES)}"
        )
    if budget < 1:  # max_steps=0 would mean no cap: a full epoch each
        raise ConfigError(f"ablation budget must be >= 1 step, got {budget}")
    # max_epochs only needs to be large enough for max_steps to bite
    run_cfg = replace(train_cfg, max_steps=budget, max_epochs=budget)
    train_items, _ = split_dataset(data)

    rows = []
    for name, delta in SUITES[suite]:
        cfg = replace(base_cfg, **delta).validate()
        model = build_model(cfg, seed=train_cfg.seed)
        train(model, run_cfg, data)
        loss, gain = dataset_scores(model, train_items)
        row = AblationRow(
            variant=name,
            n_params=model.store.total_scalars(),
            steps=budget,
            loss=loss,
            si_sdri=gain,
        )
        rows.append(row)
        if log is not None:
            log(f"variant={row.variant} params={row.n_params} "
                f"steps={row.steps} loss={row.loss:.4f} "
                f"si_sdri={row.si_sdri:.4f}")
    return AblationReport(suite=suite, rows=rows)
