"""The selftest corpus reports the checks each row makes."""

from polycover import selftest


def test_each_row_reports_the_checks_it_made(monkeypatch):
    made = []
    check = selftest._check

    def counted(cond, message):
        made[-1] += 1
        check(cond, message)

    def row(fn):
        def run():
            made.append(0)
            return fn()

        return run

    monkeypatch.setattr(selftest, "_check", counted)
    monkeypatch.setattr(
        selftest, "CORPUS", [(name, row(fn)) for name, fn in selftest.CORPUS]
    )
    rows, ok = selftest.run_corpus()
    assert ok
    assert [count for _, _, count in rows] == made
    assert all(made)
