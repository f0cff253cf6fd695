"""End-to-end CLI behavior: exit codes, artifacts, review loop, resume, stats."""
from __future__ import annotations

import dataclasses
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc
import warnings
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import pytest

import mathsynth.cli as cli
from conftest import topic_pair_corpus, write_corpus_file
from mathsynth.config import CorpusEntry, CurriculumConfig, RunConfig
from mathsynth.providers import MockTransport, cache_key
from mathsynth.synthesis import SynthesisConfig


def merged(base, override):
    """`override` laid over `base`: objects merge by key, arrays item by item."""
    if isinstance(base, dict) and isinstance(override, dict):
        return {**base, **{key: merged(base.get(key), value) for key, value in override.items()}}
    if isinstance(base, list) and isinstance(override, list):
        return [merged(base[i], o) if i < len(base) else o for i, o in enumerate(override)]
    return override


def make_run(tmp_path: Path, overrides: dict | None = None, n_topics: int = 10):
    """Write a seeds file plus config; returns (config_path, out_dir)."""
    corpus = topic_pair_corpus(n_topics=n_topics)
    seeds = write_corpus_file(tmp_path / "seeds.jsonl", corpus)
    cfg = {
        "seed_corpora": [{"path": str(seeds), "tag": "toy"}],
        "out_dir": str(tmp_path / "out"),
        "providers": {"mock": True},
    }
    if overrides:
        cfg = merged(cfg, overrides)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return config_path, tmp_path / "out"


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def read_jsonl(path: Path) -> list[dict]:
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


# --- configuration errors -----------------------------------------------------


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code = cli.main(["run-all", "--config", str(tmp_path / "nope.json")])
    assert code == cli.EXIT_USAGE
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    config_path, _ = make_run(tmp_path)
    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    cfg["surprise"] = 1
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_USAGE
    assert "surprise" in capsys.readouterr().err


@pytest.mark.parametrize(
    "typo,path",
    [
        ({"pairing": {"tua": 0.5}}, "pairing.tua"),
        ({"providers": {"models": {"embeder": "bge-m3"}}}, "providers.models.embeder"),
    ],
)
def test_nested_config_typo_is_usage_error_naming_its_path(tmp_path, capsys, typo, path):
    config_path, _ = make_run(tmp_path, typo)
    assert cli.main(["pair", "--config", str(config_path)]) == cli.EXIT_USAGE
    assert f"unknown config keys: ['{path}']" in capsys.readouterr().err


def test_non_object_config_section_is_usage_error(tmp_path, capsys):
    config_path, _ = make_run(tmp_path, {"pairing": 0.8})
    assert cli.main(["pair", "--config", str(config_path)]) == cli.EXIT_USAGE
    assert "pairing must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"pairing": {"tau": 1.5}}, "tau"),
        ({"quality": {"sample_rate": 0.0}}, "sample_rate"),
        ({"curriculum": {"grouping": 0}}, "grouping"),
        ({"synthesis": {"templates": ["mashup"]}}, "mashup"),
        ({"synthesis": {"templates": []}}, "template"),
        ({"seed_corpora": [{"path": "/does/not/exist.jsonl", "tag": "x"}]}, "not found"),
        # wrong JSON types, including a bool where an integer belongs
        ({"pairing": {"tau": "0.8"}}, "pairing.tau must be a number, got '0.8'"),
        ({"curriculum": {"grouping": "2"}}, "curriculum.grouping must be an integer"),
        ({"curriculum": {"use_scores": "no"}}, "curriculum.use_scores must be true or false"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed_corpora": [{"tag": 5}]}, "seed_corpora[0].tag must be a string, got 5"),
        ({"providers": {"models": {"solver": None}}}, "providers.models.solver must be a string"),
        ({"seed_corpora": [{"tga": "x"}]}, "unknown config keys: ['seed_corpora[0].tga']"),
        # out of range: checked at load, not when the stage that reads it runs
        ({"solver": {"max_attempts": 0}}, "solver.max_attempts must be at least 1"),
        ({"solver": {"max_duplicate_2gram_ratio": 1.5}}, "solver.max_duplicate_2gram_ratio"),
        ({"synthesis": {"temperature": 5}}, "synthesis.temperature must be in [0, 2]"),
        ({"synthesis": {"hybrid_offset": -1}}, "synthesis.hybrid_offset must be non-negative"),
        ({"providers": {"max_in_flight": 0}}, "providers.max_in_flight must be at least 1"),
        (
            {"providers": {"base_url": "localhost:8000/v1"}},
            "providers.base_url must be an http:// or https:// URL with a host",
        ),
        ({"providers": {"timeout": 0}}, "providers.timeout must be positive, got 0"),
        ({"providers": {"timeout": -1.5}}, "providers.timeout must be positive, got -1.5"),
        (
            {"providers": {"backoff_base": -0.5}},
            "providers.backoff_base must be non-negative, got -0.5",
        ),
        # too long for the platform's clocks: socket.settimeout and time.sleep overflow
        ({"providers": {"timeout": 1e10}}, "providers.timeout must be at most"),
        (
            {"providers": {"backoff_base": 1e10}},
            "providers.backoff_base * 2**(max_retries - 2) must be at most",
        ),
        (
            {"providers": {"backoff_base": 0.5, "max_retries": 10**6}},
            "providers.backoff_base * 2**(max_retries - 2) must be at most",
        ),
        (
            {"synthesis": {"templates": ["hybrid", "hybrid"]}},
            "synthesis.templates must not repeat, got ['hybrid', 'hybrid']",
        ),
    ],
)
def test_invalid_values_are_usage_errors(tmp_path, capsys, overrides, fragment):
    config_path, out = make_run(tmp_path, overrides)
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and fragment in err
    assert not (out / "reports").exists()


def _float_leaves(tp: type, prefix: str = "") -> list[str]:
    """The dotted path of every float leaf under the config dataclass `tp`, sections included."""
    leaves = []
    for name, hint in get_type_hints(tp).items():
        if get_origin(hint) in (Union, UnionType):  # `X | None`
            hint = get_args(hint)[0]
        if hint is float:
            leaves.append(prefix + name)
        elif dataclasses.is_dataclass(hint):
            leaves += _float_leaves(hint, f"{prefix}{name}.")
    return leaves


_FLOAT_LEAVES = _float_leaves(RunConfig)


def test_float_leaves_are_found():
    assert {"pairing.tau", "synthesis.hybrid_offset", "providers.timeout"} <= set(_FLOAT_LEAVES)


@pytest.mark.parametrize("leaf", _FLOAT_LEAVES)
def test_an_integer_beyond_the_float_range_is_a_usage_error(tmp_path, capsys, leaf):
    # JSON reads an integer of any size; a float field must hold it as a finite float
    override: dict = {}
    *sections, key = leaf.split(".")
    node = override
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = 10**400
    config_path, _ = make_run(tmp_path, override)
    assert cli.main(["pair", "--config", str(config_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config_path}: {leaf} must be a number, got 1000")


def test_an_integer_too_long_to_parse_is_a_usage_error(tmp_path, capsys):
    config_path, _ = make_run(tmp_path)
    cfg = config_path.read_text(encoding="utf-8")
    config_path.write_text(cfg.replace("{", '{"seed": %s, ' % ("9" * 5000), 1), encoding="utf-8")
    assert cli.main(["pair", "--config", str(config_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config_path}: invalid JSON: Exceeds the limit")


@pytest.mark.parametrize(
    "make_config,fragment",
    [
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b'{"seed": "\xff"}'), "'utf-8' codec can't decode"),
    ],
    ids=["directory", "not-utf-8"],
)
def test_unreadable_config_is_a_usage_error(tmp_path, capsys, make_config, fragment):
    config_path = tmp_path / "config.json"
    make_config(config_path)
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config_path}: cannot read: ") and fragment in err


def test_duplicate_tags_are_usage_errors(tmp_path, capsys):
    corpus = topic_pair_corpus(n_topics=2)
    seeds = write_corpus_file(tmp_path / "seeds.jsonl", corpus)
    cfg = {
        "seed_corpora": [
            {"path": str(seeds), "tag": "twin"},
            {"path": str(seeds), "tag": "twin"},
        ],
        "out_dir": str(tmp_path / "out"),
        "providers": {"mock": True},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["pair", "--config", str(config_path)]) == cli.EXIT_USAGE
    assert "unique" in capsys.readouterr().err


@pytest.mark.parametrize("file_name,tag", [("seeds.jsonl", "blended"), ("all.jsonl", None)])
def test_reserved_tags_are_usage_errors(tmp_path, capsys, file_name, tag):
    """`blended` would share artifacts/blended/ with the blended curriculum and
    `all` the stats total row; a file stem serves as the tag when none is given."""
    seeds = write_corpus_file(tmp_path / file_name, topic_pair_corpus(n_topics=2))
    out = tmp_path / "out"
    cfg = {
        "seed_corpora": [{"path": str(seeds)} | ({"tag": tag} if tag else {})],
        "out_dir": str(out),
        "providers": {"mock": True},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "seed_corpora[0].tag must not be the reserved name" in err
    assert repr(tag or "all") in err and not out.exists()


# --- pipeline ordering ----------------------------------------------------------


def test_out_of_order_command_names_the_missing_artifact(tmp_path, capsys):
    config_path, _ = make_run(tmp_path)
    code = cli.main(["verify", "--config", str(config_path)])
    assert code == cli.EXIT_FATAL
    err = capsys.readouterr().err
    assert "missing artifact" in err and "generate" in err

    code = cli.main(["stats", "--config", str(config_path)])
    assert code == cli.EXIT_FATAL


@pytest.mark.parametrize("use_scores", [False, True])
@pytest.mark.parametrize(
    "templates", [("hybrid",), ("decomposed",), ("hybrid", "decomposed"), ("decomposed", "hybrid")]
)
def test_every_declared_input_is_an_earlier_commands_output(tmp_path, use_scores, templates):
    # the producer named for a missing input is the first command declaring it an output
    seeds = write_corpus_file(tmp_path / "seeds.jsonl", topic_pair_corpus(n_topics=1))
    cfg = RunConfig(
        seed_corpora=(CorpusEntry(str(seeds)),),
        synthesis=SynthesisConfig(templates=templates),
        curriculum=CurriculumConfig(use_scores=use_scores),
    )
    files = cli.TagPaths(tmp_path, "seeds").files(cfg)
    assert list(files) == [c.name for c in cli.COMMAND_TABLE if c.name != "run-all"]
    produced: set[Path] = set()
    for name, (inputs, outputs) in files.items():
        assert set(inputs) <= produced, name
        produced.update(outputs)


def test_a_missing_input_fails_the_tag_before_any_work(tmp_path, monkeypatch, capsys):
    config_path, out = make_run(tmp_path, n_topics=2)
    for step in ("pair", "generate"):
        assert cli.main([step, "--config", str(config_path)]) == cli.EXIT_OK
    missing = out / "artifacts" / "toy" / "generated" / "decomposed.jsonl"
    missing.unlink()
    transports = []

    def counting(**kwargs):
        transports.append(MockTransport(**kwargs))
        return transports[-1]

    monkeypatch.setattr(cli, "MockTransport", counting)
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(config_path)]) == cli.EXIT_FATAL
    assert capsys.readouterr().err == f"error: missing artifact {missing}; run 'generate' first\n"
    assert not (out / "artifacts" / "toy" / "verified").exists()
    assert sum(t.calls for t in transports) == 0


def test_a_missing_input_of_a_later_tag_fails_before_any_tag_runs(tmp_path, monkeypatch, capsys):
    seeds = [
        write_corpus_file(tmp_path / f"{tag}.jsonl", topic_pair_corpus(n_topics=2))
        for tag in ("left", "right")
    ]
    config_path, out = make_run(
        tmp_path, {"seed_corpora": [{"path": str(p), "tag": p.stem} for p in seeds]}
    )
    for step in ("pair", "generate"):
        assert cli.main([step, "--config", str(config_path)]) == cli.EXIT_OK
    missing = out / "artifacts" / "right" / "generated" / "decomposed.jsonl"
    missing.unlink()
    transports = []

    def counting(**kwargs):
        transports.append(MockTransport(**kwargs))
        return transports[-1]

    monkeypatch.setattr(cli, "MockTransport", counting)
    capsys.readouterr()
    assert cli.main(["verify", "--config", str(config_path)]) == cli.EXIT_FATAL
    assert capsys.readouterr().err == f"error: missing artifact {missing}; run 'generate' first\n"
    assert not (out / "artifacts" / "left" / "verified").exists()
    assert sum(t.calls for t in transports) == 0


# --- full pipeline ----------------------------------------------------------------


def test_run_all_produces_the_full_artifact_tree(tmp_path, capsys):
    config_path, out = make_run(tmp_path)
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_OK

    artifacts = out / "artifacts" / "toy"
    for category in ("hybrid", "decomposed", "original"):
        assert len(read_jsonl(artifacts / "generated" / f"{category}.jsonl")) == 20
        assert len(read_jsonl(artifacts / "verified" / f"{category}.jsonl")) == 20
    assert len(read_jsonl(artifacts / "solutions" / "solutions.jsonl")) == 40
    manifest = json.loads(
        (artifacts / "curriculum" / "manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["total_items"] == 60
    means = [s["mean_difficulty"] for s in manifest["stages"]]
    assert means == sorted(means)

    stats_line = capsys.readouterr().out.splitlines()
    toy_rows = [line.split() for line in stats_line if line.split()[:1] == ["toy"]]
    assert toy_rows[-1] == ["toy", "20", "20", "20", "60"]

    config_copy = json.loads((out / "config.json").read_text(encoding="utf-8"))
    assert "out_dir" not in config_copy
    assert config_copy["providers"]["mock"] is True

    for step in ("pair", "generate", "verify", "solve", "curriculum", "stats", "run-all"):
        report = json.loads((out / "reports" / f"{step}.json").read_text(encoding="utf-8"))
        assert report["failures"] == 0
        assert "duration_s" in report
        assert 0 < report["peak_rss_mb"] <= round(peak_rss_mb(), 2)


def test_item_failures_exit_partial(tmp_path, monkeypatch):
    # poison every generation touching the q00 pair; the rest of the run
    # continues, so the exit signals partial rather than fatal failure
    def scripted(**kwargs):
        return MockTransport(
            script={"with 3 crates and a simple twist": "garbage without a header"}, **kwargs
        )

    monkeypatch.setattr(cli, "MockTransport", scripted)
    config_path, out = make_run(tmp_path)
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_PARTIAL

    skips = read_jsonl(out / "artifacts" / "toy" / "generated" / "skips_hybrid.jsonl")
    assert [r["seed_id"] for r in skips] == ["q00a", "q00b"]
    assert all(r["kind"] == "failure" for r in skips)
    assert len(read_jsonl(out / "artifacts" / "toy" / "generated" / "hybrid.jsonl")) == 18
    generate_report = json.loads(
        (out / "reports" / "generate.json").read_text(encoding="utf-8")
    )
    assert generate_report["failures"] == 4  # both templates, both seeds of the pair


def test_seed_flag_changes_generations(tmp_path):
    config_path, out = make_run(tmp_path)
    assert cli.main(["run-all", "--config", str(config_path), "--seed", "0"]) == 0
    baseline = (out / "artifacts" / "toy" / "generated" / "hybrid.jsonl").read_bytes()

    other_out = tmp_path / "other"
    code = cli.main(
        ["run-all", "--config", str(config_path), "--seed", "7", "--out", str(other_out)]
    )
    assert code == 0
    reseeded = (other_out / "artifacts" / "toy" / "generated" / "hybrid.jsonl").read_bytes()
    assert baseline != reseeded
    copy = json.loads((other_out / "config.json").read_text(encoding="utf-8"))
    assert copy["seed"] == 7


def read_report(out: Path, step: str) -> dict:
    return json.loads((out / "reports" / f"{step}.json").read_text(encoding="utf-8"))


@pytest.mark.filterwarnings("ignore:stage mean difficulties are not non-decreasing")
def test_resume_skips_completed_stages(tmp_path):
    config_path, out = make_run(tmp_path, {"curriculum": {"use_scores": True}}, n_topics=3)
    assert cli.main(["run-all", "--config", str(config_path)]) == 0
    assert cli.main(["run-all", "--config", str(config_path), "--resume"]) == 0
    for step in ("pair", "generate", "verify", "solve", "score"):
        assert read_report(out, step)["details"]["toy"] == {"skipped": True}
    # curriculum and stats never skip
    assert "stages" in read_report(out, "curriculum")["details"]["toy"]
    assert read_report(out, "stats")["details"]["toy"]["total"] == 18


@pytest.mark.filterwarnings("ignore:stage mean difficulties are not non-decreasing")
def test_resume_reruns_a_stage_missing_any_of_its_outputs(tmp_path):
    config_path, out = make_run(tmp_path, {"curriculum": {"use_scores": True}}, n_topics=3)
    assert cli.main(["run-all", "--config", str(config_path)]) == 0
    artifacts = out / "artifacts" / "toy"
    lost = [artifacts / "verified" / "verify_errors.jsonl", artifacts / "scores" / "missing.jsonl"]
    for path in lost:
        path.unlink()

    assert cli.main(["run-all", "--config", str(config_path), "--resume"]) == 0
    assert all(path.exists() for path in lost)
    assert read_report(out, "verify")["details"]["toy"]["hybrid"]["verified"] == 6
    assert read_report(out, "score")["details"]["toy"] == {"scored": 18, "missing": 0}
    for step in ("pair", "generate", "solve"):
        assert read_report(out, step)["details"]["toy"] == {"skipped": True}


@pytest.mark.filterwarnings("ignore:stage mean difficulties are not non-decreasing")
@pytest.mark.parametrize(
    "artifact,row,fragment",
    [
        ("scores/scores.jsonl", {"question_id": "x"}, "missing field 'score'"),
        (
            "solutions/solutions.jsonl",
            {"question_id": "x", "solution": None, "status": "accepted"},
            "solution must be a string, got None",
        ),
        (
            "verified/original.jsonl",
            {"id": "x", "question": "q", "answer": "1", "nominal_difficulty": "3"},
            "nominal_difficulty must be a number, got '3'",
        ),
        # json.dumps writes NaN, and json.loads reads it back
        (
            "scores/scores.jsonl",
            {"question_id": "x", "score": float("nan"), "scorer_tag": "m"},
            "score must be a number, got nan",
        ),
        (
            "scores/scores.jsonl",
            {"question_id": "x", "score": 11.0, "scorer_tag": "m"},
            "score 11.0 outside [1.0, 10.0]",
        ),
        (
            "solutions/solutions.jsonl",
            {"question_id": "x", "solution": " ", "status": "accepted"},
            "x: accepted solution must be non-empty",
        ),
        (
            "verified/original.jsonl",
            {"id": "x", "question": "q", "answer": "", "nominal_difficulty": 3},
            "x: question and solution must be non-empty",
        ),
    ],
)
def test_malformed_artifact_row_names_its_file_and_line(tmp_path, capsys, artifact, row, fragment):
    config_path, out = make_run(tmp_path, {"curriculum": {"use_scores": True}}, n_topics=3)
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_OK
    path = out / "artifacts" / "toy" / artifact
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([json.dumps(row), *lines[1:]]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["curriculum", "--config", str(config_path)]) == cli.EXIT_FATAL
    assert capsys.readouterr().err == f"error: {path}: line 1: {fragment}\n"


@pytest.mark.parametrize(
    "done,artifact,lineno,edit,step,fragment",
    [
        (
            ["pair"],
            "pairs.jsonl",
            1,
            lambda row: row.pop("similarity"),
            "generate",
            "missing field 'similarity'",
        ),
        (
            ["pair"],
            "pairs.jsonl",
            1,
            lambda row: row.update(similarity="high"),
            "generate",
            "similarity must be a number, got 'high'",
        ),
        (
            ["pair"],
            "pairs.jsonl",
            1,
            lambda row: row.update(low_id=row["high_id"], high_id=row["low_id"]),
            "generate",
            "pair must be ordered by difficulty: 6.0 vs 3.0",
        ),
        (
            ["pair", "generate"],
            "generated/hybrid.jsonl",
            2,
            lambda row: row.update(nominal_difficulty="hard"),
            "verify",
            "nominal_difficulty must be a number, got 'hard'",
        ),
        (
            ["pair", "generate"],
            "generated/hybrid.jsonl",
            2,
            lambda row: row.update(question=5),
            "verify",
            "question must be a string, got 5",
        ),
        (
            ["pair", "generate"],
            "generated/hybrid.jsonl",
            2,
            lambda row: row.update(nominal_difficulty=float("inf")),
            "verify",
            "nominal_difficulty must be a number, got inf",
        ),
    ],
    ids=[
        "pair-without-similarity",
        "pair-with-text-similarity",
        "pair-in-descending-order",
        "question-with-text-difficulty",
        "question-with-numeric-text",
        "question-with-infinite-difficulty",
    ],
)
def test_malformed_stage_input_names_its_file_and_line(
    tmp_path, capsys, done, artifact, lineno, edit, step, fragment
):
    config_path, out = make_run(tmp_path, n_topics=3)
    for name in done:
        assert cli.main([name, "--config", str(config_path)]) == cli.EXIT_OK
    path = out / "artifacts" / "toy" / artifact
    rows = read_jsonl(path)
    edit(rows[lineno - 1])
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    capsys.readouterr()
    assert cli.main([step, "--config", str(config_path)]) == cli.EXIT_FATAL
    assert capsys.readouterr().err == f"error: {path}: line {lineno}: {fragment}\n"


@pytest.mark.filterwarnings("ignore:emitting empty stage")
def test_stats_counts_a_disabled_template_as_zero(tmp_path, capsys):
    overrides = {"synthesis": {"templates": ["hybrid"]}, "curriculum": {"allow_empty": True}}
    config_path, out = make_run(tmp_path, overrides)
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_OK
    assert not (out / "artifacts" / "toy" / "generated" / "decomposed.jsonl").exists()

    lines = capsys.readouterr().out.splitlines()
    header = next(line.split() for line in lines if line.split()[:1] == ["dataset"])
    toy = next(line.split() for line in lines if line.split()[:1] == ["toy"])
    assert dict(zip(header, toy)) == {
        "dataset": "toy",
        "decomposed": "0",
        "original": "20",
        "hybrid": "20",
        "total": "40",
    }


def test_blend_rejects_ids_shared_across_corpora_before_any_provider_call(
    tmp_path, monkeypatch, capsys
):
    transports = []

    def counting(**kwargs):
        transports.append(MockTransport(**kwargs))
        return transports[-1]

    monkeypatch.setattr(cli, "MockTransport", counting)
    seeds = [
        write_corpus_file(tmp_path / f"{tag}.jsonl", topic_pair_corpus(n_topics=2))
        for tag in ("left", "right")
    ]
    cfg = {
        "seed_corpora": [{"path": str(seeds[0]), "tag": "left"}, {"path": str(seeds[1])}],
        "out_dir": str(tmp_path / "out"),
        "providers": {"mock": True},
        "curriculum": {"blend": True},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg), encoding="utf-8")

    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_FATAL
    err = capsys.readouterr().err
    assert "'q00a'" in err and "'left'" in err and "'right'" in err
    assert sum(t.calls for t in transports) == 0
    assert not (tmp_path / "out" / "reports").exists()

    # without blending, each corpus is staged on its own and shared ids are fine
    cfg["curriculum"]["blend"] = False
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_OK


def test_run_all_calls_the_module_level_stage_functions(tmp_path, monkeypatch):
    # a wrapper patched onto the module by name, as a tracer does, is what run-all runs
    calls = {"cmd_pair": 0, "cmd_solve": 0}
    for name in calls:
        original = getattr(cli, name)

        def counted(pipe, name=name, original=original):
            calls[name] += 1
            return original(pipe)

        monkeypatch.setattr(cli, name, counted)
    config_path, _ = make_run(tmp_path, n_topics=2)
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_OK
    assert calls == {"cmd_pair": 1, "cmd_solve": 1}


# --- manual review loop -------------------------------------------------------------


def test_review_export_import_round_trip(tmp_path):
    config_path, out = make_run(tmp_path)
    assert cli.main(["run-all", "--config", str(config_path)]) == 0
    assert cli.main(["review-export", "--config", str(config_path)]) == 0

    batch_path = out / "artifacts" / "toy" / "review" / "batch.jsonl"
    rows = read_jsonl(batch_path)
    assert rows[0]["kind"] == "review_batch_header"
    assert rows[0]["population"] == 40  # verified hybrid + decomposed
    assert len(rows) == 1 + 4  # 10% of 40
    victim = rows[1]["question_id"]
    rows[1]["verdict"] = "reject"
    rows[1]["note"] = "manually rejected in test"
    batch_path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8"
    )

    assert cli.main(["review-import", "--config", str(config_path)]) == 0
    category = victim.split(":", 1)[0]
    verified = read_jsonl(out / "artifacts" / "toy" / "verified" / f"{category}.jsonl")
    statuses = {r["id"]: r["status"] for r in verified}
    assert statuses[victim] == "rejected"
    assert sum(1 for s in statuses.values() if s == "rejected") == 1

    # rebuilding the curriculum drops the rejected item from the stage files
    assert cli.main(["curriculum", "--config", str(config_path)]) == 0
    manifest = json.loads(
        (out / "artifacts" / "toy" / "curriculum" / "manifest.json").read_text(
            encoding="utf-8"
        )
    )
    assert manifest["total_items"] == 59
    staged_ids = [
        row["meta"]["question_id"]
        for i in (1, 2, 3)
        for row in read_jsonl(out / "artifacts" / "toy" / "curriculum" / f"stage{i}.jsonl")
    ]
    assert victim not in staged_ids


def test_resume_keeps_an_annotated_review_batch(tmp_path):
    config_path, out = make_run(tmp_path, n_topics=2)
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_OK
    assert cli.main(["review-export", "--config", str(config_path)]) == cli.EXIT_OK
    batch_path = out / "artifacts" / "toy" / "review" / "batch.jsonl"
    exported = batch_path.read_bytes()
    rows = read_jsonl(batch_path)
    rows[1]["verdict"] = "reject"
    annotated = "".join(json.dumps(r) + "\n" for r in rows)
    batch_path.write_text(annotated, encoding="utf-8")

    assert cli.main(["review-export", "--config", str(config_path), "--resume"]) == cli.EXIT_OK
    assert batch_path.read_text(encoding="utf-8") == annotated
    assert read_report(out, "review-export")["details"]["toy"] == {"skipped": True}

    # without --resume the batch is exported afresh
    assert cli.main(["review-export", "--config", str(config_path)]) == cli.EXIT_OK
    assert batch_path.read_bytes() == exported


def test_review_import_of_a_header_without_sample_rate_exits_1_naming_the_line(tmp_path, capsys):
    config_path, out = make_run(tmp_path, n_topics=2)
    assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_OK
    assert cli.main(["review-export", "--config", str(config_path)]) == cli.EXIT_OK
    batch_path = out / "artifacts" / "toy" / "review" / "batch.jsonl"
    rows = read_jsonl(batch_path)
    del rows[0]["sample_rate"]
    batch_path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["review-import", "--config", str(config_path)]) == cli.EXIT_FATAL
    err = capsys.readouterr().err
    assert err == f"error: {batch_path}: line 1: missing field 'sample_rate'\n"


# --- scoring and blending ------------------------------------------------------------


# model-assigned scores may invert the fixed pure-stage order; that is a
# documented warning, not a failure
@pytest.mark.filterwarnings("ignore:stage mean difficulties are not non-decreasing")
def test_run_all_with_scores_and_blending(tmp_path):
    overrides = {"curriculum": {"use_scores": True, "blend": True, "grouping": 2}}
    config_path, out = make_run(tmp_path, overrides, n_topics=4)
    assert cli.main(["run-all", "--config", str(config_path)]) == 0

    scores = read_jsonl(out / "artifacts" / "toy" / "scores" / "scores.jsonl")
    assert len(scores) == 24  # 8 hybrid + 8 decomposed + 8 original
    assert all(1.0 <= r["score"] <= 10.0 for r in scores)

    blended = json.loads(
        (out / "artifacts" / "blended" / "curriculum" / "manifest.json").read_text(
            encoding="utf-8"
        )
    )
    assert blended["grouping"] == 2
    assert len(blended["stages"]) == 2  # three categories grouped two at a time
    means = [s["mean_difficulty"] for s in blended["stages"]]
    assert means == sorted(means)
    assert blended["total_items"] == 24


def test_each_stage_requests_its_roles_model_from_the_config(tmp_path):
    roles = {
        "generator": "gen-model",
        "verifier": "verify-model",
        "solver": "solve-model",
        "scorer": "score-model",
        "embedder": "embed-model",
    }
    overrides = {"providers": {"models": roles}, "curriculum": {"use_scores": True}}
    config_path, out = make_run(tmp_path, overrides, n_topics=4)
    with warnings.catch_warnings():
        # Measured scores may invert the pure plan's fixed category order,
        # which warns; the models requested are what this test checks.
        warnings.simplefilter("ignore", UserWarning)
        assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_OK

    salt_roles = {"gen": "generator", "verify": "verifier", "solve": "solver", "score": "scorer"}
    chat_roles, embedding_keys = set(), set()
    for line in (out / "cache" / "responses" / "log").read_text(encoding="utf-8").splitlines():
        key, entry = line[:64], json.loads(line[65:])
        if entry["endpoint"] == "/embeddings":
            embedding_keys.add(key)
            continue
        role = salt_roles[entry["salt"].split(":")[0]]
        assert entry["response"]["model"] == roles[role], entry["salt"]
        chat_roles.add(role)
    assert chat_roles == set(salt_roles.values())
    seed_texts = [row["question"] for row in read_jsonl(tmp_path / "seeds.jsonl")]
    assert embedding_keys == {
        cache_key("/embeddings", {"model": roles["embedder"], "input": [text]}, "f64le")
        for text in seed_texts
    }


def _reject_first_attempts(payload, salt):
    """A rejected first reply in generate, solve and score; None leaves a reply to the mock."""
    stage, *_, attempt = salt.split(":")
    if attempt == "1":
        return {"gen": "no header", "solve": "the answer is " * 20, "score": "unsure"}.get(stage)
    return None


def test_worker_count_does_not_change_the_output(tmp_path, monkeypatch):
    # a latency makes the mock's calls wait, so they run on 2 and 8 workers
    monkeypatch.setattr(
        cli,
        "MockTransport",
        lambda **kw: MockTransport(script={"": _reject_first_attempts}, latency=0.001, **kw),
    )
    trees, salt_sets = [], []
    for workers in (1, 2, 8):
        overrides = {"providers": {"max_in_flight": workers}, "curriculum": {"use_scores": True}}
        config_path, out = make_run(tmp_path / str(workers), overrides, n_topics=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # scores may invert the pure order
            assert cli.main(["run-all", "--config", str(config_path)]) == cli.EXIT_OK
        artifacts = out / "artifacts"
        files = sorted(p for p in artifacts.rglob("*") if p.is_file())
        trees.append({str(p.relative_to(artifacts)): p.read_bytes() for p in files})
        log = (out / "cache" / "responses" / "log").read_text(encoding="utf-8")
        salt_sets.append({json.loads(line[65:])["salt"] for line in log.splitlines()})
    assert trees[0] == trees[1] == trees[2]
    assert salt_sets[0] == salt_sets[1] == salt_sets[2]

    seeds = [row["id"] for row in read_jsonl(tmp_path / "1" / "seeds.jsonl")]
    generated = [f"{t}:{seed}" for t in ("hybrid", "decomposed") for seed in seeds]
    originals = [f"original:{seed}" for seed in seeds]
    assert salt_sets[0] == (
        {"f64le"}
        | {f"gen:{qid}:{n}" for qid in generated for n in (1, 2)}
        | {f"verify:{qid}" for qid in generated}
        | {f"solve:{qid}:{n}" for qid in generated for n in (1, 2)}
        | {f"score:{qid}:{n}" for qid in generated + originals for n in (1, 2)}
    )


_WORDS = [f"w{i}" for i in range(5000)]


def _long_reply(salt: str) -> str:
    """About 150 KB of varied words that pass the gates, a pure function of the salt."""
    return " ".join(random.Random(salt).choices(_WORDS, k=25_000)) + " \\boxed{7}"


def _stage_peaks(tmp_path, monkeypatch, long_ids) -> dict[str, int]:
    """tracemalloc's peak over solve, score and curriculum, each run alone after the
    stages before them, with `long_ids` solved by `_long_reply`."""

    def reply(payload, salt):
        stage, _, rest = salt.partition(":")
        return _long_reply(salt) if stage == "solve" and long_ids(rest.rsplit(":", 1)[0]) else None

    monkeypatch.setattr(
        cli, "MockTransport", lambda **kw: MockTransport(script={"": reply}, **kw)
    )
    config_path, out = make_run(tmp_path, {"curriculum": {"use_scores": True}}, n_topics=5)
    run = ["--config", str(config_path)]
    for step in ("pair", "generate", "verify"):
        assert cli.main([step, *run]) == cli.EXIT_OK
    peaks = {}
    for step in ("solve", "score", "curriculum"):
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # scores may invert the pure order
                assert cli.main([step, *run]) == cli.EXIT_OK
            peaks[step] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    solutions = read_jsonl(out / "artifacts" / "toy" / "solutions" / "solutions.jsonl")
    assert [r["status"] for r in solutions] == ["accepted"] * 20
    assert sum(len(r["solution"]) > 100_000 for r in solutions) == sum(
        long_ids(r["question_id"]) for r in solutions
    )
    return peaks


def test_solve_score_and_curriculum_hold_one_reply_at_a_time(tmp_path, monkeypatch):
    # 20 solved questions; 5, then all 20, get a reply of about 150 KB. A stage
    # that held every reply would peak 15 replies higher on the second run.
    hybrid_of_an_a_seed = lambda qid: qid.startswith("hybrid:") and qid.endswith("a")  # noqa: E731
    five = _stage_peaks(tmp_path / "five", monkeypatch, hybrid_of_an_a_seed)
    twenty = _stage_peaks(tmp_path / "twenty", monkeypatch, lambda qid: True)
    reply_size = len(_long_reply("solve:hybrid:q00a:1"))
    assert 140_000 < reply_size < 160_000
    for step in ("solve", "score", "curriculum"):
        assert twenty[step] - five[step] < reply_size, (step, five[step], twenty[step])


def test_hash_seed_does_not_change_the_output(tmp_path):
    # The gates intern tokens in a dict and the stages key items by id, so
    # nothing written may follow the order of a set or dict of strings.
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path])}
    trees, key_sets = [], []
    for hash_seed in ("0", "1"):
        overrides = {"curriculum": {"use_scores": True, "blend": True}}
        config_path, out = make_run(tmp_path / hash_seed, overrides, n_topics=4)
        command = [sys.executable, "-m", "mathsynth.cli", "run-all", "--mock"]
        proc = subprocess.run(
            [*command, "--config", str(config_path)],
            env={**env, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        artifacts = out / "artifacts"
        files = sorted(p for p in artifacts.rglob("*") if p.is_file())
        trees.append({str(p.relative_to(artifacts)): p.read_bytes() for p in files})
        log = (out / "cache" / "responses" / "log").read_text(encoding="utf-8")
        key_sets.append({line[:64] for line in log.splitlines()})
    assert "blended/curriculum/manifest.json" in trees[0]
    assert trees[0] == trees[1]
    assert key_sets[0] == key_sets[1]


# --- over HTTP --------------------------------------------------------------------


class _MockEndpointHandler(BaseHTTPRequestHandler):
    """Answers the OpenAI-compatible routes under /v1 with MockTransport's replies."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out as two writes
    mock = MockTransport()

    def setup(self) -> None:
        super().setup()
        self.server.connections += 1

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests += 1
        body = json.dumps(self.mock.request(self.path.removeprefix("/v1"), payload)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


# Run in a fresh interpreter: importing the CLI loads no HTTP or TLS module,
# and the run needs no requests package.
_HTTP_RUN = """
import sys
import mathsynth.cli
loaded = [m for m in ("requests", "http.client", "ssl", "urllib.request") if m in sys.modules]
if loaded:
    sys.exit(f"importing mathsynth.cli loaded {loaded}")
sys.modules["requests"] = None  # any import of requests now fails
sys.exit(mathsynth.cli.main(sys.argv[1:]))
"""


def test_run_all_over_http_needs_only_the_standard_library(tmp_path, serve):
    server = serve(_MockEndpointHandler)
    server.requests = 0
    base_url = f"http://127.0.0.1:{server.server_port}/v1"
    config_path, out = make_run(
        tmp_path, {"providers": {"mock": False, "base_url": base_url, "max_in_flight": 2}}
    )
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *sys.path])}

    def run() -> subprocess.CompletedProcess:
        # -X dev reports any socket left unclosed as a ResourceWarning
        command = [sys.executable, "-X", "dev", "-c", _HTTP_RUN, "run-all"]
        return subprocess.run(
            [*command, "--config", str(config_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )

    first = run()
    cold = (server.requests, server.connections)
    second = run()
    warm = (server.requests, server.connections)
    for proc in (first, second):
        assert proc.returncode == cli.EXIT_OK and "ResourceWarning" not in proc.stderr, proc.stderr
    # never more connections than requests in flight (max_in_flight)
    assert cold[0] > 0 and cold[1] <= 2
    assert warm == cold  # the warm cache answers every call

    curriculum = out / "artifacts" / "toy" / "curriculum"
    manifest = json.loads((curriculum / "manifest.json").read_text(encoding="utf-8"))
    staged = sum(len(read_jsonl(path)) for path in curriculum.glob("stage*.jsonl"))
    assert staged == manifest["total_items"] == 60
