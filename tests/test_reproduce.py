"""Reproduction bundles: line items, statuses, emitted files."""

import pytest

from fracoepi.model import ValidationError
from fracoepi.reproduce import KNOWN, PASS, reproduce


def by_name(report, fragment):
    matches = [item for item in report.items if fragment in item.name]
    assert matches, f"no line item matching {fragment!r}"
    return matches


@pytest.fixture(scope="module")
def ex1_report(tmp_path_factory):
    return reproduce("ex1", out_dir=tmp_path_factory.mktemp("ex1"))


@pytest.fixture(scope="module")
def ex2_report(tmp_path_factory):
    return reproduce("ex2", out_dir=tmp_path_factory.mktemp("ex2"))


@pytest.fixture(scope="module")
def ex3_report(tmp_path_factory):
    return reproduce("ex3", out_dir=tmp_path_factory.mktemp("ex3"))


@pytest.fixture(scope="module")
def exu_report(tmp_path_factory):
    return reproduce("ex1-unstable", out_dir=tmp_path_factory.mktemp("exu"))


class TestExample1:

    def test_no_failures(self, ex1_report):
        assert not ex1_report.failed
        assert all(item.status in (PASS, KNOWN) for item in ex1_report.items)

    def test_coefficient_items(self, ex1_report):
        assert by_name(ex1_report, "A1")[0].status == PASS
        disc = by_name(ex1_report, "D(F)")[0]
        assert disc.status == PASS
        assert abs(disc.computed - 0.0077) <= 5e-4

    def test_threshold_items(self, ex1_report):
        assert by_name(ex1_report, "theta1")[0].status == PASS
        assert by_name(ex1_report, "theta2")[0].status == PASS

    def test_stability_items_cover_orders(self, ex1_report):
        items = by_name(ex1_report, "E* stable at alpha")
        assert len(items) == 4 and all(i.status == PASS for i in items)

    def test_convergence_items(self, ex1_report):
        items = by_name(ex1_report, "coexistence:")
        assert len(items) == 6 and all(i.status == PASS for i in items)

    def test_figure_files(self, ex1_report):
        names = {p.name for p in ex1_report.files}
        assert "fig1_alpha0p95.csv" in names
        assert "fig1_plot.py" in names
        assert "fig2_alpha0p85_x0.csv" in names
        for path in ex1_report.files:
            assert path.exists()

    def test_items_and_files_in_report_order(self, ex1_report):
        assert [item.name for item in ex1_report.items] == [
            "A1", "A3", "A1*A2 - A3", "D(F)", "R0", "theta1", "theta2",
            *(f"E* stable at alpha={alpha}" for alpha in ("0.6", "0.85", "0.95", "1")),
            "E*(theta=0.5).S", "E*(theta=0.5).I", "E*(theta=0.5).P",
            *(f"coexistence: {x0} -> E* at alpha={alpha}"
              for alpha in ("0.85", "0.95") for x0 in ("(33,4,8)", "(38,2.5,10)", "(35,3,9.5)")),
        ]
        assert [path.name for path in ex1_report.files] == [
            *(f"fig1_alpha{tag}.csv" for tag in ("0p75", "0p85", "0p95", "1")),
            "fig1_plot.py",
            *(f"fig2_alpha{tag}_x{j}.csv" for tag in ("0p85", "0p95") for j in range(3)),
            "fig2_plot.py",
        ]

    def test_render_mentions_statuses(self, ex1_report):
        text = ex1_report.render()
        assert "[pass]" in text and "summary:" in text


class TestExample2:

    def test_no_failures(self, ex2_report):
        assert not ex2_report.failed

    def test_known_discrepancy_is_single_and_annotated(self, ex2_report):
        known = [item for item in ex2_report.items if item.status == KNOWN]
        assert len(known) == 1
        item = known[0]
        assert "d - d1" in item.name
        assert item.computed == pytest.approx(0.048204081632653061, rel=1e-12)
        assert item.reference == 0.0025
        assert "sign" in item.note

    def test_predator_free_coordinates(self, ex2_report):
        assert by_name(ex2_report, "E2.S")[0].status == PASS
        assert by_name(ex2_report, "E2.I")[0].status == PASS

    def test_global_threshold_item(self, ex2_report):
        assert by_name(ex2_report, "d2")[0].status == PASS
        assert by_name(ex2_report, "d exceeds")[0].status == PASS


class TestExample3:

    def test_no_failures(self, ex3_report):
        assert not ex3_report.failed

    def test_reproduction_values(self, ex3_report):
        r0 = by_name(ex3_report, "R0")[0]
        assert r0.status == PASS and abs(r0.computed - 0.7143) <= 5e-4
        assert all(i.status == PASS for i in by_name(ex3_report, "E1 stable"))

    def test_every_start_converges_to_prey_only(self, ex3_report):
        items = by_name(ex3_report, "prey-only:")
        assert len(items) == 6 and all(i.status == PASS for i in items)


class TestUnstable:

    def test_no_failures(self, exu_report):
        assert not exu_report.failed

    def test_discriminant_within_wide_tolerance(self, exu_report):
        disc = by_name(exu_report, "D(F)")[0]
        assert abs(disc.computed - (-463.8995)) <= 0.05

    def test_verdict_and_low_order_evaluation(self, exu_report):
        assert by_name(exu_report, "unstable at alpha=0.85")[0].status == PASS
        low = by_name(exu_report, "case (ii) hypotheses evaluated")[0]
        assert low.status == PASS
        assert "eigenvalue verdict" in low.note

    def test_not_settling_item(self, exu_report):
        assert by_name(exu_report, "does not settle")[0].status == PASS


def test_unknown_id_rejected(tmp_path):
    with pytest.raises(ValidationError, match="unknown example id"):
        reproduce("ex7", out_dir=tmp_path)


def test_unknown_id_creates_no_directory(tmp_path):
    out = tmp_path / "never"
    with pytest.raises(ValidationError, match="unknown example id"):
        reproduce("nope", out_dir=out)
    assert not out.exists()


def test_empty_out_dir_rejected(tmp_path, monkeypatch):
    # Path("") is the working directory, which an empty value does not name
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValidationError) as excinfo:
        reproduce("ex3", out_dir="")
    assert str(excinfo.value) == "field output.directory: expected one path, got ''"
    assert list(tmp_path.iterdir()) == []


def test_figure_ids_are_gone(tmp_path):
    out = tmp_path / "never"
    with pytest.raises(ValidationError) as excinfo:
        reproduce("fig1", out_dir=out)
    assert str(excinfo.value) == (
        "unknown example id 'fig1'; known ids: ex1, ex1-unstable, ex2, ex3"
    )
    assert not out.exists()


def test_unstable_example_writes_the_fig3_bundle(exu_report):
    assert not exu_report.failed
    names = [path.name for path in exu_report.files]
    assert names == ["fig3_alpha0p85.csv", "fig3_plot.py"]
    assert all(path.exists() for path in exu_report.files)
