"""Unit tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.data.random_tensors import random_coo
from repro.tensors.io import read_tns, write_tns


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "chic_01"])
        assert args.method == "fastcc"
        assert args.workers == 1

    def test_bad_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "chic_01", "--method", "gpu"])

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch", "uber_123", "G-ovov"])
        assert args.cases == ["uber_123", "G-ovov"]
        assert args.repeat == 1
        assert args.machine == "desktop"
        assert args.cache_file is None

    def test_batch_needs_at_least_one_case(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.policy == "reject"
        assert args.capacity == 64
        assert args.workers == 2
        assert args.closed == 0
        assert not args.demo

    def test_serve_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "drop"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "desktop-i7-11700F" in out
        assert "chic_01" in out

    def test_plan(self, capsys):
        rc = main([
            "plan", "--L", "1000", "--R", "1000", "--C", "100",
            "--nnz-l", "5000", "--nnz-r", "5000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "decision:" in out

    def test_run_small_case(self, capsys):
        assert main(["run", "uber_123", "--method", "fastcc"]) == 0
        out = capsys.readouterr().out
        assert "output: nnz=" in out

    def test_run_unknown_case(self):
        with pytest.raises(KeyError):
            main(["run", "nonexistent_case"])

    def test_contract_files(self, tmp_path, capsys):
        from repro.tensors.coo import COOTensor
        import numpy as np

        # .tns files carry no shape header: the reader infers extents
        # from the max coordinate, so pin the corners explicitly.
        a = random_coo((6, 8), nnz=12, seed=1)
        a = COOTensor(
            np.hstack([a.coords, [[5], [7]]]),
            np.concatenate([a.values, [0.5]]), (6, 8),
        )
        b = random_coo((8, 5), nnz=10, seed=2)
        b = COOTensor(
            np.hstack([b.coords, [[7], [4]]]),
            np.concatenate([b.values, [0.5]]), (8, 5),
        )
        pa, pb = tmp_path / "a.tns", tmp_path / "b.tns"
        out_path = tmp_path / "o.tns"
        write_tns(a, pa)
        write_tns(b, pb)
        rc = main([
            "contract", str(pa), str(pb),
            "--pairs", "1:0", "--output", str(out_path),
        ])
        assert rc == 0
        result = read_tns(out_path)
        import numpy as np

        expected = a.to_dense() @ b.to_dense()
        got = np.zeros_like(expected)
        got[: result.shape[0], : result.shape[1]] = result.to_dense()
        np.testing.assert_allclose(got, expected, rtol=1e-9)


class TestBatchCommand:
    def test_two_step_pipeline_reports_cache_hits(self, capsys):
        """A repeated registry step must hit the plan cache and reuse
        tables, and the summary must say so."""
        rc = main(["batch", "uber_123", "uber_123"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan cache: 1 hits / 1 misses" in out
        assert "hit rate 50%" in out
        assert "tables_reused=L+R" in out
        # uber_123 is a self-contraction: its two roles share one table
        # set, so step one builds it once and reuses it for the right.
        assert "tiled tables: 3 reused / 1 built" in out
        assert "estimated speedup" in out
        assert "cost-model calibration over 2 runs" in out

    def test_repeat_flag_multiplies_steps(self, capsys):
        rc = main(["batch", "uber_123", "--repeat", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "batch of 3 contractions" in out
        assert "plan cache: 2 hits / 1 misses" in out

    def test_cache_file_round_trip(self, tmp_path, capsys):
        """Plans persisted by one invocation pre-warm the next."""
        cache = tmp_path / "plans.json"
        assert main(["batch", "uber_123", "--cache-file", str(cache)]) == 0
        assert cache.exists()
        capsys.readouterr()
        assert main(["batch", "uber_123", "--cache-file", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "plan cache: 1 hits / 0 misses" in out


class TestServeCommand:
    def test_demo_quick_passes_the_smoke_bars(self, capsys):
        """The CI smoke step: bounded queue holds, nothing fails."""
        assert main(["serve", "--demo", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "demo PASS" in out
        assert "phase 2 — overload" in out

    def test_open_loop_run_prints_slo_report(self, capsys):
        rc = main([
            "serve", "--requests", "8", "--rate", "200",
            "--signatures", "2", "--capacity", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "open-loop: 8 requests" in out
        assert "statuses:" in out

    def test_closed_loop_json_document(self, capsys):
        rc = main([
            "serve", "--requests", "6", "--closed", "2", "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["load"]["mode"] == "closed"
        assert doc["load"]["statuses"].get("ok") == 6
        assert "queue" in doc["service"]
        assert "latency" in doc["service"]


class TestDnfHandling:
    def test_dnf_exits_cleanly(self, capsys):
        rc = main(["run", "NIPS_2", "--accumulator", "dense"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "DNF" in out

    def test_server_machine_flag(self, capsys):
        rc = main(["run", "uber_123", "--machine", "server"])
        assert rc == 0
        assert "server-tr-3990x" in capsys.readouterr().out


class TestAutotuneCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["autotune", "--self-check"])
        assert args.self_check and not args.quick
        assert args.state is None and args.seed == 0

    def test_serve_autotune_flags(self):
        args = build_parser().parse_args(
            ["serve", "--demo", "--autotune", "--autotune-rate", "0.2",
             "--autotune-state", "s.json"]
        )
        assert args.autotune and args.autotune_rate == 0.2
        assert args.autotune_state == "s.json"

    def test_self_check_quick_passes(self, capsys):
        assert main(["autotune", "--self-check", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "autotune self-check" in out
        assert "FAIL" not in out

    def test_missing_state_is_usage_error(self, capsys):
        assert main(["autotune"]) == 2

    def test_reset_then_inspect_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "state.json")
        assert main(["autotune", "--state", path, "--reset"]) == 0
        assert main(["autotune", "--state", path]) == 0
        out = capsys.readouterr().out
        assert "champions: 0 promoted" in out
        assert main(["autotune", "--state", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["champions"] == 0 and doc["samples"] == 0

    def test_replay_on_empty_state(self, tmp_path, capsys):
        path = str(tmp_path / "state.json")
        main(["autotune", "--state", path, "--reset"])
        capsys.readouterr()
        assert main(["autotune", "--state", path, "--replay"]) == 0
        assert "no promotion history" in capsys.readouterr().out

    def test_unreadable_state_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["autotune", "--state", str(path)]) == 1

    def test_serve_demo_with_autotune(self, tmp_path, capsys):
        path = str(tmp_path / "autotune.json")
        code = main(["serve", "--demo", "--quick",
                     "--autotune", "--autotune-state", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "autotune:" in out
