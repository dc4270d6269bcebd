"""Ablation runner: suites, report formatting, config errors."""

import csv
import io
from dataclasses import replace

import pytest

from monosep import ablation, config as cfg_mod, model, synth
from monosep.errors import ConfigError


def small_run(suite, budget=2):
    base = cfg_mod.preset("tiny")
    tcfg = cfg_mod.TrainConfig(lr=1e-3, hold_epochs=100, seed=0)
    data = synth.synth_dataset(5, 2, 2, 400)
    return ablation.run_ablation(suite, base, tcfg, budget=budget, data=data)


class TestSuites:
    def test_attention_mode_rows(self):
        report = small_run("attention_mode")
        assert [r.variant for r in report.rows] == \
            ["joint", "local_only", "global_only"]

    def test_phi_suite_covers_gate_activations(self):
        names = [name for name, _ in ablation.SUITES["phi"]]
        assert names == ["relu", "gelu", "swish", "bilinear", "sigmoid"]

    def test_rows_carry_bookkeeping(self):
        report = small_run("gating", budget=3)
        for row in report.rows:
            assert row.n_params > 0
            assert row.steps == 3
            assert row.loss == row.loss  # finite, not NaN

    def test_dense_variants_have_fewer_params(self):
        report = small_run("convm_vs_dense")
        by_name = {r.variant: r.n_params for r in report.rows}
        assert by_name["dense_uv"] < by_name["convm"]
        assert by_name["dense_both"] < by_name["dense_qk"]

    def test_params_column_matches_count_parameters(self):
        report = small_run("convm_vs_dense")
        base = cfg_mod.preset("tiny")
        for row, (name, delta) in zip(report.rows,
                                      ablation.SUITES["convm_vs_dense"]):
            assert row.variant == name
            assert row.n_params == model.count_parameters(replace(base, **delta))

    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown ablation suite"):
            small_run("nonsense")

    def test_budget_below_one_rejected(self):
        # max_steps=0 would train each variant for a whole epoch
        with pytest.raises(ConfigError, match="budget"):
            small_run("gating", budget=0)

    def test_variant_losses_distinct(self):
        report = small_run("attention_mode", budget=4)
        losses = [r.loss for r in report.rows]
        assert len(set(losses)) == len(losses)


class TestReport:
    def test_text_is_column_aligned(self):
        report = small_run("gating")
        lines = report.to_text().splitlines()
        assert lines[0] == "suite=gating"
        header = lines[1]
        for column in ("variant", "params", "steps", "loss", "si_sdri"):
            assert column in header
        starts = [header.index(c) for c in ("params", "steps", "loss")]
        for line in lines[2:]:
            for col_start in starts:
                assert line[col_start - 1] == " "  # column boundaries line up

    def test_csv_round_trips(self):
        report = small_run("gating")
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == ["variant", "params", "steps", "loss", "si_sdri"]
        assert len(rows) == 1 + len(report.rows)
        assert rows[1][0] == "triple"
        float(rows[1][3])  # loss parses as a number
