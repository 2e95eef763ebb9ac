"""JSON Lines question/answer dataset loading."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from . import TensorparseError


class DatasetError(TensorparseError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class DatasetExample:
    question: str
    answers: tuple[str, ...]
    line_number: int = 0


def load_dataset(source: Iterable[str]) -> list[DatasetExample]:
    """Parse JSONL lines ``{"question": ..., "answers": [...]}``.

    Blank lines are skipped; file order is preserved and line numbers
    retained for error reporting.
    """
    examples = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"invalid JSON ({exc.msg})", lineno) from exc
        if not isinstance(obj, dict):
            raise DatasetError("expected a JSON object", lineno)
        question = obj.get("question")
        answers = obj.get("answers")
        if not isinstance(question, str) or not question:
            raise DatasetError("missing or empty string field 'question'", lineno)
        if (
            not isinstance(answers, list)
            or not answers
            or not all(isinstance(a, str) for a in answers)
        ):
            raise DatasetError("missing or empty string-array field 'answers'", lineno)
        examples.append(
            DatasetExample(question=question, answers=tuple(answers), line_number=lineno)
        )
    return examples
