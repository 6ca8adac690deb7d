"""The selftest corpus reports the checks each row makes."""

from polycover import cli, selftest


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


def test_a_failing_row_reads_fail_and_the_other_rows_still_run(monkeypatch, capsys):
    def fails():
        selftest._check(True, "a check that holds")
        selftest._check(False, "a planted failure")

    bad = 3
    corpus = list(selftest.CORPUS)
    corpus[bad] = (corpus[bad][0], fails)
    monkeypatch.setattr(selftest, "CORPUS", corpus)
    seen = []

    def spy():
        rows, ok = selftest.run_corpus()
        seen.append(rows)
        return rows, ok

    monkeypatch.setattr(cli, "run_corpus", spy)
    assert cli.main(["selftest"]) == 1
    (rows,) = seen
    assert capsys.readouterr().out == selftest.format_table(rows)
    assert [name for name, _, _ in rows] == [name for name, _ in corpus]
    assert rows[bad][1:] == ("FAIL: a planted failure", 0)
    others = rows[:bad] + rows[bad + 1:]
    assert all(status == "pass" and count > 0 for _, status, count in others)
