import pytest


def _assert_same_text(got: str, want: str) -> None:
    """Fail at the first line where got and want differ, naming it and both
    lines. pytest's own diff of two long strings is quadratic in their
    length: for two 12293-row CSVs it ran for minutes."""
    __tracebackhide__ = True
    if got == want:
        return
    a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    end = "<end of text>"
    pytest.fail(f"texts of {len(a)} and {len(b)} lines differ first at line "
                f"{i + 1}:\n  got:  {a[i] if i < len(a) else end!r}\n"
                f"  want: {b[i] if i < len(b) else end!r}")


@pytest.fixture
def same_text():
    """assert_same_text(got, want): equal texts, or the first differing
    line."""
    return _assert_same_text
