"""Curriculum staging: pure category order, scoring, blending, and SFT export."""
from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

from conftest import make_chat
from mathsynth import jsonl
from mathsynth.curriculum import (
    CurriculumError,
    CurriculumPlan,
    DifficultyScore,
    GradedItem,
    Stage,
    StoredSolution,
    build_blended_curriculum,
    build_pure_curriculum,
    export_sft_stages,
    load_scores,
    parse_score,
    save_scores,
    score_difficulty,
)
from mathsynth.providers import ModelRoles, TransportError


def _item(
    qid: str, label: str, score: float | None = None, question: str | None = None
) -> GradedItem:
    return GradedItem(
        question_id=qid,
        question=question or f"question for {qid}",
        solution=f"solution for {qid}",
        category_label=label,
        difficulty_score=score,
    )


def pure_items(dataset: str = "toy"):
    return [
        _item(f"{c}:q{i}", f"{dataset}/{c}", score)
        for c, score in (("decomposed", 3.0), ("original", 5.0), ("hybrid", 8.0))
        for i in range(2)
    ]


# --- graded items ------------------------------------------------------------


def test_graded_item_validation_and_label_split():
    with pytest.raises(CurriculumError):
        _item("", "toy/hybrid")
    with pytest.raises(CurriculumError):
        GradedItem(question_id="q", question=" ", solution="s", category_label="x")
    with pytest.raises(CurriculumError):
        GradedItem(question_id="q", question="q?", solution=" ", category_label="x")
    assert _item("q", "toy/hybrid").split_label() == ("toy", "hybrid")
    assert _item("q", "hybrid").split_label() == ("", "hybrid")
    assert _item("q", "a/b/c").split_label() == ("a", "b/c")


# --- pure curriculum -----------------------------------------------------------


def test_pure_curriculum_fixed_order_and_sorted_items():
    items = pure_items()
    random.Random(1).shuffle(items)
    plan = build_pure_curriculum(items)
    assert [s.name for s in plan.stages] == ["decomposed", "original", "hybrid"]
    assert plan.grouping == 1
    assert [s.mean_difficulty for s in plan.stages] == [3.0, 5.0, 8.0]
    for stage in plan.stages:
        ids = [i.question_id for i in stage.items]
        assert ids == sorted(ids) and len(ids) == 2
    assert plan.total_items() == 6


def test_pure_curriculum_empty_category_handling():
    items = [i for i in pure_items() if "original" not in i.category_label]
    with pytest.raises(CurriculumError, match="original"):
        build_pure_curriculum(items)
    with pytest.warns(UserWarning, match="empty stage"):
        plan = build_pure_curriculum(items, allow_empty=True)
    assert [len(s.items) for s in plan.stages] == [2, 0, 2]


def test_pure_curriculum_rejects_unknown_categories():
    with pytest.raises(CurriculumError, match="bonus"):
        build_pure_curriculum([_item("q", "toy/bonus")])


def test_pure_curriculum_warns_on_mean_inversion():
    items = [
        _item("decomposed:q", "toy/decomposed", 9.0),
        _item("original:q", "toy/original", 1.0),
        _item("hybrid:q", "toy/hybrid", 5.0),
    ]
    with pytest.warns(UserWarning, match="non-decreasing"):
        plan = build_pure_curriculum(items)
    assert [s.name for s in plan.stages] == ["decomposed", "original", "hybrid"]


def test_plan_rejects_duplicate_items_across_stages():
    item = _item("q", "toy/hybrid", 5.0)
    stage = Stage(name="s", items=(item,), mean_difficulty=5.0, categories=("toy/hybrid",))
    with pytest.raises(CurriculumError, match="more than one stage"):
        CurriculumPlan(stages=(stage, stage), grouping=1)
    with pytest.raises(CurriculumError):
        CurriculumPlan(stages=(), grouping=1)


# --- difficulty scoring ----------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Difficulty: 8.5/10", 8.5),
        ("I would rate this 7", 7.0),
        ("score: 6 / 10 overall", 6.0),
        ("first 3/10 then 9/10", 3.0),
        ("answer is 4, so 2/10", 2.0),
        ("no digits at all", None),
        ("-2/10 seems right", -2.0),
    ],
)
def test_parse_score(text, expected):
    assert parse_score(text) == expected


def test_difficulty_score_range():
    with pytest.raises(CurriculumError):
        DifficultyScore(question_id="q", score=12.0, scorer_tag="m")
    with pytest.raises(CurriculumError):
        DifficultyScore(question_id="q", score=0.5, scorer_tag="m")


def test_score_difficulty_happy_path():
    items = [_item(f"hybrid:q{i}", "toy/hybrid") for i in range(4)]
    client, _ = make_chat(max_in_flight=1, models=ModelRoles(scorer="scorer-model"))
    scores, missing = score_difficulty(items, client)
    assert missing == []
    assert {s.question_id for s in scores} == {i.question_id for i in items}
    assert all(1.0 <= s.score <= 10.0 for s in scores)
    assert all(s.scorer_tag == "scorer-model" for s in scores)


def test_score_difficulty_retry_then_missing():
    noisy = _item("hybrid:noisy", "toy/hybrid", question="an unratable question")
    clean = _item("hybrid:clean", "toy/hybrid")
    client, transport = make_chat(
        script={"an unratable question": "no numbers here"}, max_in_flight=1
    )
    scores, missing = score_difficulty([noisy, clean], client)
    assert [s.question_id for s in scores] == ["hybrid:clean"]
    assert missing == [("hybrid:noisy", "no number in scorer response: 'no numbers here'")]
    assert transport.calls == 3  # two salted attempts for the noisy item


def test_score_difficulty_clamps_out_of_range():
    item = _item("hybrid:hot", "toy/hybrid", question="an impossible question")
    client, _ = make_chat(script={"an impossible question": "Difficulty: 15/10"}, max_in_flight=1)
    with pytest.warns(UserWarning, match="clamped"):
        scores, missing = score_difficulty([item], client)
    assert missing == [] and scores[0].score == 10.0


def test_score_difficulty_provider_error_goes_missing():
    item = _item("hybrid:down", "toy/hybrid", question="a question nobody hears")
    client, _ = make_chat(
        script={"a question nobody hears": TransportError("down", retryable=False)},
        max_in_flight=1,
    )
    scores, missing = score_difficulty([item], client)
    assert scores == [] and missing[0][0] == "hybrid:down"
    assert missing[0][1].startswith("provider:")


# --- blended curriculum -----------------------------------------------------------


def scored(datasets, scores):
    """The datasets with each item's difficulty_score read from `scores`; None if absent."""
    return [
        [dataclasses.replace(i, difficulty_score=scores.get(i.question_id)) for i in dataset]
        for dataset in datasets
    ]


def two_dataset_items():
    datasets = []
    means = {
        ("alpha", "decomposed"): 2.0,
        ("beta", "decomposed"): 3.0,
        ("alpha", "original"): 4.0,
        ("beta", "original"): 5.0,
        ("alpha", "hybrid"): 6.0,
        ("beta", "hybrid"): 7.0,
    }
    scores: dict[str, float] = {}
    for dataset in ("alpha", "beta"):
        items = []
        for category in ("decomposed", "original", "hybrid"):
            label = f"{dataset}/{category}"
            base = means[(dataset, category)]
            for i in range(2):
                qid = f"{dataset}:{category}:q{i}"
                items.append(_item(qid, label))
                scores[qid] = base + (0.5 if i else -0.5)
        datasets.append(items)
    return datasets, scores


def test_blended_groups_categories_by_mean_rank():
    datasets, scores = two_dataset_items()
    plan = build_blended_curriculum(scored(datasets, scores), grouping=2)
    assert [s.name for s in plan.stages] == ["stage1", "stage2", "stage3"]
    assert [s.categories for s in plan.stages] == [
        ("alpha/decomposed", "beta/decomposed"),
        ("alpha/original", "beta/original"),
        ("alpha/hybrid", "beta/hybrid"),
    ]
    means = [s.mean_difficulty for s in plan.stages]
    assert means == sorted(means)
    assert plan.total_items() == 12
    assert plan.grouping == 2


def test_blended_tie_breaks_by_dataset_then_category():
    items = [
        _item("b:orig:q", "beta/aaa"),
        _item("a:orig:q", "alpha/zzz"),
        _item("a:dec:q", "alpha/mmm"),
    ]
    scores = {"b:orig:q": 5.0, "a:orig:q": 5.0, "a:dec:q": 5.0}
    plan = build_blended_curriculum(scored([items], scores), grouping=1)
    assert [s.categories[0] for s in plan.stages] == ["alpha/mmm", "alpha/zzz", "beta/aaa"]


def test_blended_unscored_items_inherit_category_mean():
    items = [
        _item("hybrid:q0", "toy/hybrid"),
        _item("hybrid:q1", "toy/hybrid"),
        _item("hybrid:q2", "toy/hybrid"),
    ]
    scores = {"hybrid:q0": 6.0, "hybrid:q1": 8.0}
    plan = build_blended_curriculum(scored([items], scores), grouping=1)
    by_id = {i.question_id: i for i in plan.stages[0].items}
    assert by_id["hybrid:q2"].difficulty_score == 7.0  # category mean of the scored two
    assert by_id["hybrid:q0"].difficulty_score == 6.0


def test_blended_rejects_unscored_categories_and_bad_grouping():
    items = [_item("hybrid:q0", "toy/hybrid")]
    with pytest.raises(CurriculumError, match="no scored items"):
        build_blended_curriculum([items], grouping=1)
    with pytest.raises(CurriculumError, match="grouping"):
        build_blended_curriculum(scored([items], {"hybrid:q0": 5.0}), grouping=0)
    with pytest.raises(CurriculumError, match="no items"):
        build_blended_curriculum([], grouping=1)


def test_blended_single_stage_when_grouping_covers_everything():
    datasets, scores = two_dataset_items()
    plan = build_blended_curriculum(scored(datasets, scores), grouping=10)
    assert len(plan.stages) == 1
    assert plan.stages[0].categories[0] == "alpha/decomposed"
    assert plan.total_items() == 12


def test_blended_partitions_items_randomized():
    rng = random.Random(9)
    for _ in range(50):
        n_categories = rng.randint(1, 6)
        items = []
        scores = {}
        for c in range(n_categories):
            label = f"d{c % 2}/cat{c}"
            for i in range(rng.randint(1, 5)):
                qid = f"{label}:q{i}"
                items.append(_item(qid, label))
                if i == 0 or rng.random() < 0.7:
                    scores[qid] = float(rng.randint(1, 10))
        grouping = rng.randint(1, 3)
        plan = build_blended_curriculum(scored([items], scores), grouping=grouping)
        staged = [i.question_id for s in plan.stages for i in s.items]
        assert sorted(staged) == sorted(i.question_id for i in items)
        means = [s.mean_difficulty for s in plan.stages]
        assert means == sorted(means)


# --- export -----------------------------------------------------------------------


def test_export_sft_stages(tmp_path):
    plan = build_pure_curriculum(pure_items())
    manifest_path = export_sft_stages(plan, tmp_path / "curriculum")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["grouping"] == 1
    assert manifest["total_items"] == 6
    assert [s["file"] for s in manifest["stages"]] == [
        "stage1.jsonl",
        "stage2.jsonl",
        "stage3.jsonl",
    ]
    means = [s["mean_difficulty"] for s in manifest["stages"]]
    assert means == sorted(means)

    first = (tmp_path / "curriculum" / "stage1.jsonl").read_text(encoding="utf-8")
    row = json.loads(first.splitlines()[0])
    assert row["messages"][0]["role"] == "user"
    assert row["messages"][1]["role"] == "assistant"
    assert row["meta"]["category_label"] == "toy/decomposed"
    assert row["meta"]["difficulty"] == 3.0


def test_export_rejects_empty_stage_unless_allowed(tmp_path):
    with pytest.warns(UserWarning):
        plan = build_pure_curriculum(
            [i for i in pure_items() if "original" not in i.category_label],
            allow_empty=True,
        )
    with pytest.raises(CurriculumError, match="empty"):
        export_sft_stages(plan, tmp_path / "strict")
    manifest_path = export_sft_stages(plan, tmp_path / "loose", allow_empty=True)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["stages"][1]["size"] == 0
    assert (tmp_path / "loose" / "stage2.jsonl").read_text(encoding="utf-8") == ""


def test_export_is_byte_stable(tmp_path):
    plan = build_pure_curriculum(pure_items())
    export_sft_stages(plan, tmp_path / "one")
    export_sft_stages(plan, tmp_path / "two")
    for name in ("stage1.jsonl", "stage2.jsonl", "stage3.jsonl", "manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_a_re_export_removes_the_stage_files_it_no_longer_writes(tmp_path):
    math = [dataclasses.replace(i, question_id=f"m{i.question_id}") for i in pure_items("math")]
    datasets = [pure_items("gsm"), math]
    (tmp_path / "notes.jsonl").write_text("{}\n", encoding="utf-8")
    export_sft_stages(build_blended_curriculum(datasets, grouping=1), tmp_path)
    assert len(list(tmp_path.glob("stage*.jsonl"))) == 6
    manifest_path = export_sft_stages(build_blended_curriculum(datasets, grouping=3), tmp_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    staged = sorted(tmp_path.glob("stage*.jsonl"))
    assert [p.name for p in staged] == [s["file"] for s in manifest["stages"]]
    assert [p.name for p in staged] == ["stage1.jsonl", "stage2.jsonl"]
    rows = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in staged)
    assert rows == manifest["total_items"] == 12
    assert (tmp_path / "notes.jsonl").exists()  # only stage files are removed


def test_scores_round_trip(tmp_path):
    scores = [
        DifficultyScore(question_id="b", score=4.0, scorer_tag="m"),
        DifficultyScore(question_id="a", score=9.5, scorer_tag="m"),
    ]
    path = tmp_path / "scores.jsonl"
    save_scores(scores, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert '"a"' in lines[0]  # sorted by question id
    assert load_scores(path) == {"a": 9.5, "b": 4.0}


def _stored(tmp_path, items):
    """The items with their solutions moved to a solutions file, kept by span."""
    path = tmp_path / "solutions.jsonl"
    rows = [
        {"question_id": i.question_id, "solution": i.solution, "status": "accepted"}
        for i in reversed(items)
    ]
    jsonl.write_records(path, rows)
    spans = {record["question_id"]: span for span, record in jsonl.read_records(path)}
    return path, [
        dataclasses.replace(i, solution=StoredSolution(path, spans[i.question_id]))
        for i in items
    ]


def test_export_reads_stored_solutions_back_opening_each_file_once(tmp_path, monkeypatch):
    items = pure_items()
    export_sft_stages(build_pure_curriculum(items), tmp_path / "inline")
    path, stored = _stored(tmp_path, [i for i in items if "original" not in i.category_label])
    stored += [i for i in items if "original" in i.category_label]  # answers stay inline
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(jsonl, "open", counting_open, raising=False)
    export_sft_stages(build_pure_curriculum(stored), tmp_path / "stored")
    assert opened.count(path) == 1  # the other opens write the stage files
    for name in ("stage1.jsonl", "stage2.jsonl", "stage3.jsonl", "manifest.json"):
        inline = (tmp_path / "inline" / name).read_bytes()
        assert (tmp_path / "stored" / name).read_bytes() == inline


def test_export_rejects_a_stored_row_of_another_question(tmp_path):
    path, stored = _stored(tmp_path, pure_items())
    rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rows[0], rows[1] = rows[1], rows[0]  # same lengths: the spans now hold each other's rows
    path.write_text("".join(rows), encoding="utf-8")
    with pytest.raises(CurriculumError, match=r"solutions\.jsonl: line [12]: question_id"):
        export_sft_stages(build_pure_curriculum(stored), tmp_path / "curriculum")
