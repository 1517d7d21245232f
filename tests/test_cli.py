import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import formaltrip
from formaltrip import cli
from formaltrip.cli import main
from formaltrip.grammar import GenerationConfig, VocabularyConfig


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    code = run_cli(
        "generate", "--grammar", "prop", "--depth", "6", "--branching", "20",
        "--sample-count", "4", "--batches", "2", "--seed", "11",
        "--output-dir", out,
    )
    assert code == 0
    return out


def test_generate_writes_batches_and_manifest(dataset_dir):
    names = sorted(p.name for p in dataset_dir.iterdir())
    assert names == [
        "prop_operator_total_batch0.jsonl",
        "prop_operator_total_batch1.jsonl",
        "prop_operator_total_manifest.json",
    ]
    manifest = json.loads((dataset_dir / "prop_operator_total_manifest.json").read_text())
    assert manifest["total"] > 0


def test_generate_defaults_are_the_config_defaults(tmp_path, monkeypatch):
    seen = {}

    def fake_generate(grammar, vocab, gen):
        seen.update(vocab=vocab, gen=gen)
        raise ValueError("stop before generating")

    monkeypatch.setattr(cli, "generate_dataset", fake_generate)
    assert run_cli("generate", "--grammar", "prop", "--output-dir", tmp_path) == 3
    assert seen["vocab"] == VocabularyConfig()
    assert seen["gen"] == GenerationConfig(metric="operator_total", seed=0)


@pytest.mark.parametrize(
    "budget,expected",
    [
        ({}, "473589cb74c37ffb8f31ea0614f65ecc3826cd7d36f095e7326315c94aa9c59e"),
        ({"max_clauses": 1000, "max_model_domain": 1},
         "80877394af81982f17ff88305642db90f4b144d38670739601fdcbc492a044e5"),
    ],
    ids=["default", "benchmark"],
)
def test_results_header_config_hash_is_pinned(budget, expected):
    """A new ProverBudget or ProviderConfig field must not silently change
    the config_hash that results headers carry and --resume compares."""
    from formaltrip import storage
    from formaltrip.cli import _effective_run_config
    from formaltrip.pipeline import ProviderConfig
    from formaltrip.verify import ProverBudget

    config = _effective_run_config(ProviderConfig(), 0, ProverBudget(**budget))
    assert storage.config_hash(config) == expected


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            "generate", "--grammar", "regex", "--depth", "4", "--branching", "10",
            "--sample-count", "3", "--batches", "2", "--alphabet-size", "1",
            "--seed", "5", "--output-dir", out,
        ) == 0
    for name in ("regex_cfg_depth_batch0.jsonl", "regex_cfg_depth_batch1.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_global_flags_may_come_before_or_after_the_subcommand(tmp_path, monkeypatch):
    flags = ["--grammar", "prop", "--depth", "5", "--branching", "10", "--sample-count", "2", "--batches", "1"]
    before, after, unseeded = tmp_path / "before", tmp_path / "after", tmp_path / "unseeded"
    assert run_cli("--seed", "3", "--output-dir", before, "generate", *flags) == 0
    assert run_cli("generate", *flags, "--seed", "3", "--output-dir", after) == 0
    assert run_cli("generate", *flags, "--output-dir", unseeded) == 0
    name = "prop_operator_total_batch0.jsonl"
    assert (before / name).read_bytes() == (after / name).read_bytes()
    assert (before / name).read_bytes() != (unseeded / name).read_bytes()

    # --config and --verbose on either side: a budget too small to decide the pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budgets": {"max_clauses": 1, "max_seconds": 0.05, "max_model_domain": 1}}))
    pair = ("fol", "∀x. (pred1(x) ∧ pred2(x))", "(∀x. pred1(x)) ∧ (∀y. pred2(y))")
    assert run_cli("verify", *pair) == 0
    assert run_cli("--config", config, "verify", *pair) == 2
    assert run_cli("verify", *pair, "--config", config) == 2
    levels = []
    monkeypatch.setattr(cli.logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    for argv in (("verify", *pair), ("--verbose", "verify", *pair), ("verify", *pair, "--verbose")):
        assert run_cli(*argv) == 0
    assert levels == [cli.logging.INFO, cli.logging.DEBUG, cli.logging.DEBUG]


_AFTER = argparse.SUPPRESS  # the default of a global flag given after a subcommand
_GLOBAL_AFTER = {
    "--config": (_AFTER, False, None), "--seed": (_AFTER, False, "int"),
    "--output-dir": (_AFTER, False, None), "--verbose": (_AFTER, False, None),
}
_HELP = {"-h --help": (argparse.SUPPRESS, False, None)}
# (default, required, type) of every option and positional, per parser, in order
CLI_SURFACE = {
    "formaltrip": {
        **_HELP, "--config": (None, False, None), "--seed": (0, False, "int"),
        "--output-dir": ("out", False, None), "--verbose": (False, False, None),
    },
    "generate": {
        **_HELP, **_GLOBAL_AFTER, "--grammar": (None, True, None),
        "--depth": (40, False, "int"), "--branching": (200, False, "int"),
        "--sample-count": (50, False, "int"), "--batches": (10, False, "int"),
        "--metric": (None, False, None), "--num-propositions": (12, False, "int"),
        "--num-predicates": (8, False, "int"), "--num-objects": (12, False, "int"),
        "--min-predicate-arity": (1, False, "int"), "--max-predicate-arity": (2, False, "int"),
        "--free-variable-prob": (0.25, False, "float"), "--max-free-variables": (None, False, "int"),
        "--alphabet-size": (2, False, "int"),
    },
    "run": {
        **_HELP, **_GLOBAL_AFTER, "--provider": (None, False, None), "--dataset": (None, True, None),
        "--shots": (0, False, "int"), "--fixtures": (None, False, None),
        "--resume": (False, False, None), "--width": (None, False, "int"),
    },
    "judge": {
        **_HELP, **_GLOBAL_AFTER, "--provider": (None, False, None), "--results": (None, True, None),
        "--style": ("cot", False, None), "--fixtures": (None, False, None),
        "--balance": (False, False, None), "--resume": (False, False, None),
    },
    "report": {
        **_HELP, **_GLOBAL_AFTER, "--results": (None, True, None),
        "--judge-results": ([], False, None), "--by": (None, False, None),
    },
    "verify": {
        **_HELP, **_GLOBAL_AFTER, "formalism": (None, True, None), "left": (None, True, None),
        "right": (None, True, None), "--alphabet": (None, False, None),
    },
}


def test_cli_surface_is_pinned():
    """Every option string of every parser, with its default, `required`
    flag and type, in declaration order."""

    def surface(parser):
        return [(" ".join(a.option_strings) or a.dest, (a.default, a.required, getattr(a.type, "__name__", None)))
                for a in parser._actions if not isinstance(a, argparse._SubParsersAction)]

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {"formaltrip": surface(parser), **{name: surface(p) for name, p in sub.choices.items()}}
    assert got == {name: list(table.items()) for name, table in CLI_SURFACE.items()}


def test_custom_grammar_file(tmp_path):
    rules = tmp_path / "toy.cfg"
    rules.write_text("S -> ( S ∧ S )\nS -> v\n")
    out = tmp_path / "ds"
    code = run_cli(
        "generate", "--grammar", rules, "--depth", "4", "--branching", "10",
        "--sample-count", "2", "--batches", "1", "--seed", "3", "--output-dir", out,
    )
    assert code == 0
    # grammar id comes from the file stem; placeholder v resolves to propositions
    rows = (out / "toy_operator_total_batch0.jsonl").read_text().splitlines()
    assert rows and all('"formalism": "toy"' not in r for r in rows)


def _generate_from(tmp_path, rules_text, stem):
    rules = tmp_path / f"{stem}.cfg"
    rules.write_text(rules_text, encoding="utf-8")
    return run_cli(
        "generate", "--grammar", rules, "--depth", "4", "--branching", "10",
        "--sample-count", "2", "--batches", "1", "--seed", "3",
        "--output-dir", tmp_path / "ds",
    )


def test_rule_file_may_spell_connectives_with_the_parsers_words(tmp_path):
    # leaf counts read the parser's connective words, so they agree with
    # the counts of the instantiated formula
    assert _generate_from(tmp_path, "S -> ( S and S ) | not v | v\n", "words") == 0
    batch = tmp_path / "ds" / "words_operator_total_batch0.jsonl"
    rows = [json.loads(line) for line in batch.read_text().splitlines()]
    assert max(r["category_value"] for r in rows) > 1
    for r in rows:
        assert r["category_value"] == sum(r["expression"].count(g) for g in "∧∨¬")


def test_connective_glued_into_a_terminal_is_an_error(tmp_path, capsys):
    # no word table sees the ∧ inside the terminal "∧v"; the drift check does
    assert _generate_from(tmp_path, "S -> v ∧v\n", "glued") == 3
    assert "error: metric drifted during instantiation: 0 -> 1" in capsys.readouterr().err


REGEX_RULES = "S -> ( S ) K\nS -> S Σ K\nS -> Σ K\nK -> * | ε\n"


@pytest.mark.parametrize("stem", ["prop", "myregex"])
def test_custom_grammar_formalism_comes_from_its_placeholders(tmp_path, stem):
    # a file named like a built-in grammar holds regex rules; the default
    # metric of a regex grammar is cfg_depth whatever the file is called
    rules = tmp_path / f"{stem}.cfg"
    rules.write_text(REGEX_RULES, encoding="utf-8")
    out = tmp_path / "ds"
    assert run_cli(
        "generate", "--grammar", rules, "--depth", "4", "--branching", "10",
        "--sample-count", "2", "--batches", "1", "--seed", "3", "--output-dir", out,
    ) == 0
    rows = [json.loads(r) for r in (out / f"{stem}_cfg_depth_batch0.jsonl").read_text().splitlines()]
    assert rows and {r["formalism"] for r in rows} == {"regex"}


def test_run_report_verify_loop(dataset_dir, tmp_path, capsys):
    run_dir = tmp_path / "run"
    code = run_cli(
        "run", "--provider", "perfect-oracle",
        "--dataset", dataset_dir / "prop_operator_total_batch0.jsonl",
        dataset_dir / "prop_operator_total_batch1.jsonl",
        "--output-dir", run_dir,
    )
    assert code == 0
    results = sorted(run_dir.glob("results_*.jsonl"))
    assert len(results) == 2

    code = run_cli(
        "report", "--results", *results, "--output-dir", run_dir,
    )
    assert code == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["compliance"] == 1.0
    assert summary["accuracy"] == 1.0
    assert (run_dir / "summary_categories.csv").read_text().startswith(
        "metric_value,samples,compliance,accuracy,unknown_rate"
    )


def test_resume_completes_missing_records(dataset_dir, tmp_path):
    run_dir = tmp_path / "run"
    batch = dataset_dir / "prop_operator_total_batch0.jsonl"
    assert run_cli("run", "--provider", "perfect-oracle", "--dataset", batch,
                   "--output-dir", run_dir) == 0
    result = next(run_dir.glob("results_*.jsonl"))
    full = result.read_text().splitlines()
    # truncate to simulate an interrupt, then resume
    result.write_text("\n".join(full[: 1 + len(full) // 2]) + "\n")
    assert run_cli("run", "--provider", "perfect-oracle", "--dataset", batch,
                   "--resume", "--output-dir", run_dir) == 0
    resumed = result.read_text().splitlines()
    assert len(resumed) == len(full)
    ids = [json.loads(r)["record_id"] for r in resumed[1:]]
    assert len(ids) == len(set(ids))


def test_judge_subcommand(dataset_dir, tmp_path):
    run_dir = tmp_path / "run"
    batch = dataset_dir / "prop_operator_total_batch0.jsonl"
    assert run_cli("run", "--provider", "perfect-oracle", "--dataset", batch,
                   "--output-dir", run_dir) == 0
    result = next(run_dir.glob("results_*.jsonl"))
    assert run_cli("judge", "--provider", "perfect-oracle", "--results", result,
                   "--balance", "--output-dir", run_dir) == 0
    judge_file = next(run_dir.glob("judge_*.jsonl"))
    rows = [json.loads(r) for r in judge_file.read_text().splitlines()[1:]]
    assert rows
    # balanced positives are textually distinct pairs with equivalent truth
    positives = [r for r in rows if r["pair_id"].endswith("#pos")]
    for row in positives:
        assert row["formula1"] != row["formula2"]
        assert row["ground_truth"] == "equivalent"
    assert run_cli("report", "--results", result, "--judge-results", judge_file,
                   "--output-dir", run_dir) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["judge"]["f1"] == 1.0


def test_judge_balance_skips_a_twin_the_verifier_cannot_check(dataset_dir, tmp_path, monkeypatch):
    import formaltrip.cli as cli

    run_dir = tmp_path / "run"
    batch = dataset_dir / "prop_operator_total_batch0.jsonl"
    assert run_cli("run", "--provider", "perfect-oracle", "--dataset", batch,
                   "--output-dir", run_dir) == 0
    result = next(run_dir.glob("results_*.jsonl"))

    def judged(out_dir):
        assert run_cli("judge", "--provider", "perfect-oracle", "--results", result,
                       "--balance", "--output-dir", out_dir) == 0
        return next(out_dir.glob("judge_*.jsonl")).read_text().splitlines()[1:]

    clean = judged(tmp_path / "clean")
    real_verify = cli.verify_pair
    calls = []

    def faulty_verify(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("verifier fault")
        return real_verify(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_pair", faulty_verify)
    faulty = judged(tmp_path / "faulty")
    first_positive = next(row for row in clean if '#pos"' in row)
    assert faulty == [row for row in clean if row != first_positive]


def test_judge_resume_skips_pairs_already_judged(dataset_dir, tmp_path):
    run_dir = tmp_path / "run"
    batch = dataset_dir / "prop_operator_total_batch0.jsonl"
    assert run_cli("run", "--provider", "perfect-oracle", "--dataset", batch,
                   "--output-dir", run_dir) == 0
    result = next(run_dir.glob("results_*.jsonl"))
    judge_args = ("judge", "--provider", "perfect-oracle", "--results", result,
                  "--balance", "--output-dir", run_dir)
    assert run_cli(*judge_args) == 0
    judge_file = next(run_dir.glob("judge_*.jsonl"))
    full = judge_file.read_text().splitlines()
    assert len(full) > 3
    judge_file.write_text("\n".join(full[:2]) + "\n")  # the header and the first pair
    assert run_cli(*judge_args, "--resume") == 0
    assert judge_file.read_text().splitlines() == full


def test_judge_on_results_with_no_judgeable_pair_is_an_error(dataset_dir, tmp_path, capsys):
    fixtures = tmp_path / "empty.jsonl"
    fixtures.write_text("")
    run_dir = tmp_path / "run"
    assert run_cli("run", "--provider", "replay", "--fixtures", fixtures,
                   "--dataset", dataset_dir / "prop_operator_total_batch0.jsonl",
                   "--output-dir", run_dir) == 0
    result = next(run_dir.glob("results_*.jsonl"))
    rows = [json.loads(r) for r in result.read_text().splitlines()[1:]]
    assert rows and all(r["error"].startswith("ReplayMiss: ") for r in rows)
    capsys.readouterr()
    code = run_cli("judge", "--provider", "perfect-oracle", "--results", result,
                   "--output-dir", run_dir)
    assert code == 3
    assert "holds no judgeable pairs" in capsys.readouterr().err
    assert not list(run_dir.glob("judge_*.jsonl"))


def test_run_replays_from_the_fixtures_flag(tmp_path):
    data = Path(__file__).resolve().parent / "data" / "replay"
    run_dir = tmp_path / "run"
    assert run_cli("run", "--provider", "replay", "--fixtures", data / "fixtures.jsonl",
                   "--dataset", data / "prop_operator_total_batch0.jsonl",
                   data / "prop_operator_total_batch1.jsonl", "--output-dir", run_dir) == 0
    results = sorted(run_dir.glob("results_*.jsonl"))
    assert run_cli("report", "--results", *results, "--output-dir", run_dir) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    expected = json.loads((data / "expected_summary.json").read_text())
    for key in ("model", "records", "errored", "compliance", "accuracy", "categories"):
        assert summary[key] == expected[key], key


def test_generate_fol_english_writes_english_names(tmp_path):
    from formaltrip.grammar import words

    out = tmp_path / "ds"
    assert run_cli("generate", "--grammar", "fol_english", "--depth", "6", "--branching", "20",
                   "--sample-count", "4", "--batches", "1", "--seed", "11",
                   "--output-dir", out) == 0
    rows = [json.loads(r) for p in sorted(out.glob("*batch*.jsonl"))
            for r in p.read_text().splitlines()]
    assert rows and {r["grammar_id"] for r in rows} == {"fol"}
    vocabulary = rows[0]["vocabulary"]
    assert set(vocabulary["predicates"]) <= set(words.VERBS)
    assert set(vocabulary["objects"]) <= set(words.NAMES)
    assert any(name in r["expression"] for r in rows for name in vocabulary["predicates"])


@pytest.mark.parametrize(
    "formalism,left,right,expected",
    [
        ("prop", "¬(p1 ∧ p2)", "¬p1 ∨ ¬p2", 0),
        ("regex", "1*11*", "1*1*1*", 1),
        ("fol", "∀x. pred1(x)", "∀x. pred1(x)", 0),
    ],
)
def test_verify_exit_codes(formalism, left, right, expected):
    assert run_cli("verify", formalism, left, right) == expected


def test_python_dash_m_runs_the_cli():
    # the package's own directory's parent, so a source checkout works uninstalled
    src = str(Path(formaltrip.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-m", "formaltrip", "verify", "prop", "p1", "p1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "verdict: equivalent\n"


def test_a_file_whose_name_no_glob_matches_is_read_as_it_is(tmp_path):
    path = tmp_path / "a[1].jsonl"  # as a glob, it matches "a1.jsonl" only
    path.write_text("")
    assert cli._expand_paths([str(path)]) == [path]


def test_judge_balance_leaves_out_a_twin_the_verifier_does_not_confirm(tmp_path):
    record = {
        "record_id": "r0", "formalism": "fol", "grammar_id": "fol", "batch_index": 0,
        "category_metric": "operator_total", "category_value": 2,
        "expression": "∀ x1. ¬¬pred1(x1)", "model": "perfect-oracle",
        "parsed": "∀ x1. ¬¬pred1(x1)", "verdict_status": "equivalent",
    }
    results = tmp_path / "results_fol.jsonl"
    results.write_text(json.dumps({"kind": "header"}) + "\n" + json.dumps(record) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budgets": {"max_clauses": 1, "max_model_domain": 1}}))

    def pair_ids(out_dir, *flags):
        assert run_cli("judge", "--provider", "perfect-oracle", "--results", results,
                       "--balance", "--output-dir", out_dir, *flags) == 0
        rows = (out_dir / "judge_fol.jsonl").read_text().splitlines()[1:]
        return [json.loads(row)["pair_id"] for row in rows]

    assert pair_ids(tmp_path / "confirmed") == ["r0", "r0#pos"]
    assert pair_ids(tmp_path / "unconfirmed", "--config", config) == ["r0"]


def test_run_on_an_empty_dataset_is_an_error(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = run_cli("run", "--provider", "perfect-oracle", "--dataset", empty, "--output-dir", tmp_path)
    assert code == 3
    assert "holds no records" in capsys.readouterr().err


@pytest.mark.parametrize("config,named", [
    ({}, "no provider configured"),
    ({"provider": {"kind": "perfect_oracle"}, "budgets": [1]}, "'budgets' must be an object"),
])
def test_run_without_a_provider_or_with_unreadable_budgets_is_an_error(
        dataset_dir, tmp_path, capsys, config, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli("run", "--dataset", dataset_dir / "prop_operator_total_batch0.jsonl",
                   "--config", path, "--output-dir", tmp_path / "run")
    assert code == 3
    assert named in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_report_on_missing_files_fails(tmp_path):
    assert run_cli("report", "--results", tmp_path / "nope*.jsonl") == 3


def test_generate_rejects_bad_params(tmp_path):
    assert run_cli(
        "generate", "--grammar", "prop", "--depth", "0", "--output-dir", tmp_path
    ) == 3


@pytest.mark.parametrize("grammar, flag, field", [
    ("prop", "--num-propositions", "num_propositions"),
    ("fol", "--num-predicates", "num_predicates"),
    ("fol", "--num-objects", "num_objects"),
])
def test_generate_rejects_an_empty_vocabulary(tmp_path, capsys, grammar, flag, field):
    out = tmp_path / "ds"
    code = run_cli("generate", "--grammar", grammar, flag, "0", "--output-dir", out)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and field in err
    assert not out.exists()


def test_report_rebucket_by_flag(tmp_path):
    ds = tmp_path / "ds"
    assert run_cli(
        "generate", "--grammar", "regex", "--depth", "5", "--branching", "20",
        "--sample-count", "4", "--batches", "1", "--seed", "9", "--output-dir", ds,
    ) == 0
    run_dir = tmp_path / "run"
    assert run_cli(
        "run", "--provider", "perfect-oracle",
        "--dataset", ds / "regex_cfg_depth_batch0.jsonl", "--output-dir", run_dir,
    ) == 0
    result = next(run_dir.glob("results_*.jsonl"))
    assert run_cli(
        "report", "--results", result, "--by", "dfa_density", "--output-dir", run_dir
    ) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["category_metric"] == "dfa_density"
    # density buckets land on tenths
    for value in summary["categories"]:
        assert float(value) == round(float(value), 1)
    assert run_cli(
        "report", "--results", result, "--by", "operator_total", "--output-dir", run_dir
    ) == 0
    summary2 = json.loads((run_dir / "summary.json").read_text())
    assert summary2["category_metric"] == "operator_total"


@pytest.mark.parametrize("metric,value", [("dfa_nodes", 3), ("dfa_edges", 5), ("dfa_density", 0.8)])
def test_report_rebuckets_a_regex_record_without_an_alphabet(tmp_path, metric, value):
    # a record without an alphabet was parsed under the digits, so its DFA
    # is measured over the digits too
    result = tmp_path / "results.jsonl"
    record = {
        "record_id": "r0", "formalism": "regex", "grammar_id": "regex", "batch_index": 0,
        "category_metric": "cfg_depth", "category_value": 2, "expression": "01*",
        "model": "perfect-oracle", "alphabet": None, "parsed": "01*",
        "verdict_status": "equivalent",
    }
    result.write_text(json.dumps({"kind": "header"}) + "\n" + json.dumps(record) + "\n")
    run_dir = tmp_path / "run"
    assert run_cli("report", "--results", result, "--by", metric, "--output-dir", run_dir) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    assert list(summary["categories"]) == [str(value)]


@pytest.mark.parametrize("metric", ["dfa_density", "bogus"])
def test_report_by_a_metric_that_does_not_apply_is_an_error(dataset_dir, tmp_path, capsys, metric):
    run_dir = tmp_path / "run"
    assert run_cli(
        "run", "--provider", "perfect-oracle",
        "--dataset", dataset_dir / "prop_operator_total_batch0.jsonl", "--output-dir", run_dir,
    ) == 0
    result = next(run_dir.glob("results_*.jsonl"))
    capsys.readouterr()
    code = run_cli("report", "--results", result, "--by", metric, "--output-dir", run_dir)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and repr(metric) in err
    assert not (run_dir / "summary.json").exists()


def test_verify_unknown_exit_code(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "budgets": {"max_clauses": 1, "max_seconds": 0.05, "max_model_domain": 1}
    }))
    code = run_cli(
        "verify", "fol",
        "∀x. (pred1(x) ∧ pred2(x))", "(∀x. pred1(x)) ∧ (∀y. pred2(y))",
        "--config", config,
    )
    assert code == 2


def test_verify_reads_files(tmp_path):
    left = tmp_path / "left.txt"
    right = tmp_path / "right.txt"
    left.write_text("¬(p1 ∧ p2)\n")
    right.write_text("¬p1 ∨ ¬p2\n")
    assert run_cli("verify", "prop", f"@{left}", f"@{right}") == 0


@pytest.mark.parametrize("budgets,named", [
    ({"max_clause": 1000}, "'max_clause'"),
    ({"max_clauses": "many"}, "'max_clauses'"),
])
def test_bad_budget_in_config_is_an_error(tmp_path, capsys, budgets, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"budgets": budgets}))
    code = run_cli("verify", "fol", "∀x. pred1(x)", "∃x. pred1(x)", "--config", config)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("config,named", [
    ({"provider": {"kind": "perfect_oracle", "modle": 3}}, "'modle'"),
    ([1], "JSON object"),
    ({"provider": {"kind": "perfect_oracle"}, "concurrency": [2]}, "'concurrency'"),
])
def test_malformed_config_is_an_error(dataset_dir, tmp_path, capsys, config, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli(
        "run", "--dataset", dataset_dir / "prop_operator_total_batch0.jsonl",
        "--config", path, "--output-dir", tmp_path / "run",
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "run").exists()


def test_judge_with_an_unknown_provider_creates_no_output(tmp_path, capsys):
    code = run_cli(
        "judge", "--provider", "nonsense", "--results", tmp_path / "results_x.jsonl",
        "--output-dir", tmp_path / "judge",
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "'nonsense'" in err
    assert not (tmp_path / "judge").exists()


@pytest.mark.parametrize("width", [0, -1])
def test_run_rejects_a_width_below_one(dataset_dir, tmp_path, capsys, width):
    code = run_cli(
        "run", "--provider", "perfect-oracle",
        "--dataset", dataset_dir / "prop_operator_total_batch0.jsonl",
        "--width", width, "--output-dir", tmp_path / "run",
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "--width" in err
    assert not (tmp_path / "run").exists()


def test_report_nulls_a_batch_with_nothing_to_score(dataset_dir, tmp_path):
    run_dir = tmp_path / "run"
    assert run_cli(
        "run", "--provider", "perfect-oracle",
        "--dataset", dataset_dir / "prop_operator_total_batch0.jsonl", "--output-dir", run_dir,
    ) == 0
    scored = run_dir / "results_prop_operator_total_batch0.jsonl"
    header, *rows = scored.read_text(encoding="utf-8").splitlines()
    empty, errored = run_dir / "results_empty.jsonl", run_dir / "results_errored.jsonl"
    empty.write_text(header + "\n", encoding="utf-8")
    rows = [json.dumps({**json.loads(row), "error": "ProviderError: down"}) for row in rows]
    errored.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")

    assert run_cli("report", "--results", scored, "--output-dir", tmp_path / "alone") == 0
    assert run_cli("report", "--results", scored, empty, errored, "--output-dir", run_dir) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    for name in ("results_empty", "results_errored"):
        batch = summary["batches"][name]
        assert batch["compliance"] is batch["accuracy"] is batch["unknown_rate"] is None
    only = summary["batches"]["results_prop_operator_total_batch0"]
    assert summary["batch_stats"]["compliance"]["values"] == [only["compliance"]]
    assert summary["batch_stats"]["accuracy"]["values"] == [only["accuracy"]]
    # errored records are no category's samples, so the table is unchanged
    csv = "summary_categories.csv"
    assert (run_dir / csv).read_text() == (tmp_path / "alone" / csv).read_text()

    assert run_cli("report", "--results", empty, errored, "--output-dir", run_dir) == 3


def test_report_nulls_accuracy_excluding_unknown_when_every_verdict_is_unknown(tmp_path):
    header = {
        "config_hash": "0" * 64, "dataset_hash": "0" * 64, "kind": "header",
        "model": "perfect-oracle", "started_at": None, "version": formaltrip.__version__,
    }
    record = {
        "alphabet": None, "batch_index": 0, "category_metric": "operator_total",
        "category_value": 0, "cfg_depth": 4, "error": None, "expression": "∃ x1. pred2(p6)",
        "formalism": "fol", "grammar_id": "fol", "interpretation": "",
        "kind": "round_trip", "model": "perfect-oracle", "noncompliant_reason": None,
        "parsed": "∃ x1. pred2(p6)", "prompt_ids": [], "raw_reply": "∃ x1. pred2(p6)",
        "record_id": "fol-operator_total-0-00000", "timings": {}, "tokens": {},
        "verdict_reason": "prover budget exhausted", "verdict_status": "unknown",
        "verdict_witness": None,
    }
    results = tmp_path / "results_fol.jsonl"
    results.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    assert run_cli("report", "--results", results, "--output-dir", tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["accuracy_excluding_unknown"] is None
    assert summary["unknown_rate"] == 1.0


def test_report_refuses_two_results_files_with_one_name(dataset_dir, tmp_path, capsys):
    # both would be batch "results", and the second would replace the first
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert run_cli(
            "run", "--provider", "perfect-oracle",
            "--dataset", dataset_dir / "prop_operator_total_batch0.jsonl", "--output-dir", out,
        ) == 0
        (out / "results_prop_operator_total_batch0.jsonl").rename(out / "results.jsonl")
    capsys.readouterr()
    code = run_cli(
        "report", "--results", first / "results.jsonl", second / "results.jsonl",
        "--output-dir", tmp_path / "report",
    )
    err = capsys.readouterr().err
    assert code == 3
    assert str(first / "results.jsonl") in err and str(second / "results.jsonl") in err
    assert not (tmp_path / "report").exists()
