"""The public shape of the plain result records: their fields in order, with
defaults, their repr and their refusal of attribute assignment."""

import inspect

import pytest

from isolect import builder, merger, refinement

EMPTY = inspect.Parameter.empty

RECORDS = {
    builder.ResolutionResult: [
        ("resolved", EMPTY), ("depth", EMPTY), ("lateral", EMPTY), ("total_length", EMPTY),
        ("depth_range", EMPTY), ("simple_candidate", EMPTY), ("alternate_candidate", EMPTY),
        ("deviation", EMPTY), ("reason", EMPTY)],
    merger.Prediction: [
        ("pair", EMPTY), ("distance", EMPTY), ("coincidence", EMPTY),
        ("below_threshold", EMPTY)],
    merger.ConsistencyReport: [
        ("shared", EMPTY), ("rows", EMPTY), ("tolerance", EMPTY), ("notes", ())],
    refinement.EvaluationReport: [
        ("languages", EMPTY), ("restored", EMPTY), ("residuals", EMPTY),
        ("dispersions", EMPTY), ("worst_pairs", EMPTY)],
    refinement.BuildPass: [
        ("dendrogram", EMPTY), ("weights", EMPTY), ("report", EMPTY),
        ("weight_change", EMPTY)],
    refinement.IterationTrace: [("passes", EMPTY)],
    refinement.PerturbationRow: [
        ("delta", EMPTY), ("coincidence", EMPTY), ("depth", EMPTY), ("lateral", EMPTY),
        ("status", EMPTY), ("flags", EMPTY)],
    refinement.PerturbationReport: [
        ("perturbed_pair", EMPTY), ("tracked_pair", EMPTY), ("rows", EMPTY)],
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
class TestRecordShape:
    def test_fields_in_order_with_defaults(self, record):
        params = inspect.signature(record).parameters.values()
        assert [(p.name, p.default) for p in params] == RECORDS[record]

    def test_repr_names_every_field(self, record):
        names = [name for name, _ in RECORDS[record]]
        value = record(*range(len(names)))
        assert repr(value) == "{}({})".format(
            record.__name__, ", ".join(f"{name}={i}" for i, name in enumerate(names)))

    def test_attributes_cannot_be_assigned(self, record):
        value = record(*range(len(RECORDS[record])))
        for name in (RECORDS[record][0][0], "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, -1)
        assert value == record(*range(len(RECORDS[record])))


def test_consistency_report_max_deviation_and_passed():
    rows = (("distance", ("a", "b"), 10.0, 11.5, 1.5), ("depth", ("a", "b"), 4.0, 3.5, 0.5))
    report = merger.ConsistencyReport(("a", "b"), rows, 1.0)
    assert report.notes == ()
    assert (report.max_deviation, report.passed) == (1.5, False)
    assert merger.ConsistencyReport(("a", "b"), rows, 1.5).passed  # the tolerance is inclusive
    empty = merger.ConsistencyReport(("a",), (), 0.0)
    assert (empty.max_deviation, empty.passed) == (0.0, True)
