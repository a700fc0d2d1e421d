import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cyclicfiber import catalog, coherence, lp
from cyclicfiber.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_triangulations_counts(capsys):
    code, out, _ = run(capsys, "triangulations", "-n", "5", "-d", "2")
    assert code == 0 and "5 triangulations" in out
    code, out, _ = run(capsys, "triangulations", "-n", "8", "-d", "4", "--json")
    assert code == 0 and json.loads(out)["count"] == 40


def test_triangulations_scale_guard(capsys):
    code, _, err = run(capsys, "triangulations", "-n", "11", "-d", "9")
    assert code == 2 and "--stretch" in err


def test_triangulations_cross_check_says_when_no_count_is_published(capsys):
    # the catalog holds no d = 1 count, so nothing is compared
    assert (6, 1) not in catalog.TRIANGULATION_COUNTS
    code, out, err = run(capsys, "triangulations", "-n", "6", "-d", "1", "--cross-check")
    assert code == 0 and err == ""
    assert out == "C(6,1): 16 triangulations\ncross-check: no published count for C(6,1)\n"
    code, out, _ = run(capsys, "triangulations", "-n", "6", "-d", "2", "--cross-check")
    assert code == 0 and out.endswith("\ncross-check: flip count matches published table\n")


@pytest.mark.parametrize(
    "argv", [["fiber", "-n", "12", "-d", "3", "--dprime", "5"], ["paths", "-n", "40", "-d", "2"]]
)
def test_fiber_and_paths_scale_guard(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "exceeds the scale limit 10" in err


def test_triangulations_out_file(tmp_path, capsys):
    path = tmp_path / "t.txt"
    code, _, _ = run(capsys, "triangulations", "-n", "5", "-d", "2", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5 and "123,134,145" in lines


def test_triangulations_out_file_is_sorted(tmp_path, capsys):
    # frozensets compare by inclusion and no triangulation contains another,
    # so sorting them without a key would keep the container's order
    path = tmp_path / "t.txt"
    assert run(capsys, "triangulations", "-n", "6", "-d", "2", "--out", str(path))[0] == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 14 and lines == sorted(lines) and lines[0] == "123,134,145,156"
    path = tmp_path / "t.json"
    assert run(capsys, "triangulations", "-n", "10", "-d", "7", "--out", str(path))[0] == 0
    cells = [entry["cells"] for entry in json.loads(path.read_text())]
    assert len(cells) == 10 and cells == sorted(cells)


def test_regularity_lemma47(tmp_path, capsys):
    path = tmp_path / "c95.txt"
    path.write_text(catalog.PARAM_DEPENDENT[(9, 5)]["cells"] + "\n")
    code, out, _ = run(
        capsys, "regularity", str(path), "-n", "9", "-d", "5",
        "--params", "0,6,7,8,9,10,11,12,30",
    )
    assert code == 0 and "REGULAR" in out
    code, out, _ = run(
        capsys, "regularity", str(path), "-n", "9", "-d", "5", "--params", "standard",
    )
    assert code == 1 and "NONREGULAR" in out


def test_regularity_certify_and_cross_check(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("123,134\n")
    code, out, _ = run(
        capsys, "regularity", str(path), "-n", "4", "-d", "2", "--certify", "--cross-check",
    )
    assert code == 0 and "WITNESS" in out
    # a certificate is checked on the Q^n system, a witness by its lower hull
    path.write_text(catalog.PARAM_DEPENDENT[(9, 5)]["cells"] + "\n")
    argv = ["regularity", str(path), "-n", "9", "-d", "5", "--cross-check", "--params"]
    code, out, err = run(capsys, *argv, "standard")
    assert code == 1 and "NONREGULAR" in out and err == ""
    code, out, err = run(capsys, *argv, "lemma47-c95")
    assert code == 0 and "REGULAR" in out and err == ""
    # at d = 1 points 2 and 4 lie in no cell, and the lower hull must leave them out
    path.write_text("13,35\n")
    code, out, err = run(capsys, "regularity", str(path), "-n", "5", "-d", "1", "--cross-check")
    assert code == 0 and out.startswith("line 1: REGULAR") and err == ""


def test_regularity_certify_and_cross_check_build_the_q_n_system_once(tmp_path, capsys, monkeypatch):
    # both flags check a certificate on one Q^n system, built and verified once
    real, built = coherence.regularity_system, []

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(coherence, "regularity_system", counted)
    path = tmp_path / "c95.txt"
    path.write_text(catalog.PARAM_DEPENDENT[(9, 5)]["cells"] + "\n")
    code, out, err = run(
        capsys, "regularity", str(path), "-n", "9", "-d", "5", "--certify", "--cross-check",
    )
    assert code == 1 and "NONREGULAR" in out and "CERTIFICATE" in out and err == ""
    assert len(built) == 1


WRONG_VERDICTS = {"witness": lp.Witness((0, 0, 0, 0)), "certificate": lp.Certificate((1,))}
WRONG_CASES = pytest.mark.parametrize(
    "wrong, entry",
    [
        pytest.param(WRONG_VERDICTS[kind], entry, id=kind + ("-json" if entry else ""))
        for entry in (False, True)
        for kind in WRONG_VERDICTS
    ],
)


def _regularity_with_a_wrong_verdict(tmp_path, capsys, monkeypatch, wrong, entry, flag):
    """`regularity -n 4 -d 2 flag` on the cells 123,134, as a digit line or
    a JSON entry, while is_regular returns wrong."""
    # zero heights lift no fold, and a wall fold is no certificate on its own
    monkeypatch.setattr(coherence, "is_regular", lambda tri, pv: wrong)
    path = tmp_path / "t.txt"
    if entry:
        path.write_text(json.dumps([{"n": 4, "cells": [[1, 2, 3], [1, 3, 4]]}]))
    else:
        path.write_text("123,134\n")
    return run(capsys, "regularity", str(path), "-n", "4", "-d", "2", flag)


@WRONG_CASES
def test_regularity_cross_check_rejects_a_wrong_verdict(tmp_path, capsys, monkeypatch, wrong, entry):
    code, out, err = _regularity_with_a_wrong_verdict(
        tmp_path, capsys, monkeypatch, wrong, entry, "--cross-check"
    )
    where = "entry" if entry else "line"
    assert code == 1 and out == "" and err.startswith(f"{where} 1: cross-check failed")


@WRONG_CASES
def test_regularity_certify_rejects_a_wrong_verdict(tmp_path, capsys, monkeypatch, wrong, entry):
    # the printed Q^n system and result are checked before either is printed
    code, out, err = _regularity_with_a_wrong_verdict(
        tmp_path, capsys, monkeypatch, wrong, entry, "--certify"
    )
    where = "entry" if entry else "line"
    assert code == 1 and out == "" and err.startswith(f"{where} 1: certify failed")


def test_fiber_certify_rejects_a_wrong_certificate(capsys, monkeypatch):
    real = coherence.fiber_face_poset
    named = []

    def wrong(*args):
        # adding a row that the equalities do not force to zero breaks y^T A = 0
        report = real(*args)
        i = next(i for i, r in enumerate(report.results) if isinstance(r, lp.Certificate))
        y = report.results[i].y
        report.results[i] = lp.Certificate((y[0] + 1,) + y[1:])
        named.append(str(report.poset.elements[i]))
        return report

    monkeypatch.setattr(coherence, "fiber_face_poset", wrong)
    code, out, err = run(capsys, "fiber", "-n", "6", "-d", "2", "--dprime", "4", "--certify")
    assert code == 1 and out == "" and err.startswith(f"{named[0]}: certify failed")


def test_regularity_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("12x,134\n")
    code, _, err = run(capsys, "regularity", str(path), "-n", "4", "-d", "2")
    assert code == 2 and "line 1" in err
    # lines are numbered as in the file, blank lines included
    path.write_text("123,134\n\n12x,134\n")
    code, out, err = run(capsys, "regularity", str(path), "-n", "4", "-d", "2")
    assert code == 2 and out == "" and "line 3: parse error" in err


def test_fiber_reports(capsys):
    code, out, _ = run(
        capsys, "fiber", "-n", "6", "-d", "2", "--dprime", "4",
        "--params", "-5,-3,-1,1,3,5", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["proper_elements"] == 30
    assert payload["polygon"] == "8-gon"
    assert payload["euler_characteristic"] == 0
    code, out, _ = run(
        capsys, "fiber", "-n", "6", "-d", "2", "--dprime", "4",
        "--params", "-100,2,3,4,5,6",
    )
    assert code == 0 and "9-gon" in out
    code, out, _ = run(capsys, "fiber", "-n", "6", "-d", "1", "--dprime", "3")
    assert code == 0 and "8-gon" in out
    assert "Euler characteristic of proper part: 0" in out


def test_fiber_json_names_each_n10_element_by_its_cells(capsys):
    # at n >= 10 a cell is written with commas, so cells are joined by ";"
    code, out, _ = run(capsys, "fiber", "-n", "10", "-d", "6", "--dprime", "8", "--json")
    report = coherence.fiber_face_poset(10, 6, 8)
    want = [
        s.cells for s, r in zip(report.poset.elements, report.verdicts)
        if not s.is_trivial and not isinstance(r, lp.Witness)
    ]
    got = [
        tuple(tuple(int(i) for i in cell.split(",")) for cell in text.split(";"))
        for text in json.loads(out)["incoherent"]
    ]
    assert code == 0 and len(got) == 258 and got == want


def test_fiber_report_counts_incoherent_elements(capsys):
    code, out, _ = run(capsys, "fiber", "-n", "8", "-d", "3", "--dprime", "5")
    assert code == 0 and "-> 14-gon" in out
    lines = out.splitlines()
    assert "incoherent elements: 256" in lines
    # the count replaces the listing: no line names a subdivision
    assert not any(";" in line or "1234" in line for line in lines)
    code, out, _ = run(capsys, "fiber", "-n", "8", "-d", "3", "--dprime", "5", "--json")
    assert code == 0 and len(json.loads(out)["incoherent"]) == 256


def test_paths_report(capsys):
    code, out, _ = run(capsys, "paths", "-n", "8", "-d", "4")
    assert code == 0 and "32 coherent of 64" in out
    code, out, _ = run(
        capsys, "paths", "-n", "6", "-d", "4", "--compare-zonotope", "--cross-check"
    )
    assert code == 0 and "ISOMORPHIC" in out


def test_paths_general(capsys, tmp_path):
    code, out, _ = run(capsys, "paths-general", "remark-ubc", "--dir", "1")
    assert code == 0 and out.startswith("34 coherent")
    mat = tmp_path / "m.mat"
    mat.write_text("0 1 2 4\n0 0 1 0\n0 0 0 1\n")
    code, out, _ = run(capsys, "paths-general", str(mat), "--dir", "1", "--json")
    assert code == 0 and json.loads(out)["coherent"] == 4


def test_gale_dump(capsys):
    code, out, _ = run(capsys, "gale", "-n", "4", "-d", "2")
    assert code == 0 and "q*_2 = (-3)" in out


def test_param_file_source(tmp_path, capsys):
    f = tmp_path / "params.txt"
    f.write_text("1,2,3,10/3,23/6,13/3,14/3,5,6\n")
    tri = tmp_path / "tri.txt"
    tri.write_text(catalog.PARAM_DEPENDENT[(9, 3)]["cells"] + "\n")
    code, out, _ = run(
        capsys, "regularity", str(tri), "-n", "9", "-d", "3", "--params", f"@{f}"
    )
    assert code == 0 and "REGULAR" in out


def test_regularity_fixture_of_published_classes(tmp_path, capsys):
    path = tmp_path / "c73_classes.txt"
    path.write_text("\n".join(cells for cells, _ in catalog.C73_CLASSES) + "\n")
    code, out, _ = run(capsys, "regularity", str(path), "-n", "7", "-d", "3")
    assert code == 0 and out.count("REGULAR") == len(catalog.C73_CLASSES)


def test_regularity_json_input(tmp_path, capsys):
    from cyclicfiber.subdiv import enumerate_triangulations, format_triangulation_file

    tris = sorted(enumerate_triangulations(10, 8), key=sorted)
    path = tmp_path / "c10_8.json"
    path.write_text(format_triangulation_file(tris, 10, 8))
    code, out, _ = run(capsys, "regularity", str(path), "-n", "10", "-d", "8")
    assert code == 0 and out.count("REGULAR") == 2


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"d": 4, "cells": [[1, 2, 3, 4, 5]]}, 'missing "n"'),
        ({"n": 9, "d": 4}, 'missing "cells"'),
        ({"n": 8, "d": 4, "cells": [[1, 2, 3, 4, 5]]}, "n = 8, expected 9"),
        ({"n": 9, "d": 3, "cells": [[1, 2, 3, 4]]}, "d = 3, expected 4"),
        ({"n": 9, "d": 4, "cells": [1, 2, 3, 4, 5]}, "malformed cells"),
        ({"n": 9, "d": 4, "cells": [[True, 2, 3, 4, 5]]}, "malformed cells"),
        ({"n": 9, "d": 4, "cells": [[1.5, 2, 3, 4, 5]]}, "malformed cells"),
        ({"n": 9, "cells": [[1, 2, 3, 4, 10]]}, "out of range 1..9"),
        ({"n": 9, "cells": [[1, 2, 3, 3, 5]]}, "repeated indices"),
        ({"n": 9, "cells": [[1, 2, 3, 4, 5]]}, "wall (1, 2, 3, 5) is neither interior nor boundary"),
    ],
    ids=["no-n", "no-cells", "other-n", "other-d", "flat-cells", "bool-vertex", "float-vertex",
         "vertex-out-of-range", "repeated-vertex", "no-subdivision"],
)
def test_regularity_rejects_malformed_json_entries(tmp_path, capsys, entry, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([entry]))
    code, out, err = run(capsys, "regularity", str(path), "-n", "9", "-d", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: entry 1:") and message in err


def test_regularity_names_the_line_it_rejects(tmp_path, capsys):
    # every line is checked before the first verdict, so nothing is printed
    path = tmp_path / "t.txt"
    path.write_text("123,134,145,156\n123,134\n")
    code, out, err = run(capsys, "regularity", str(path), "-n", "6", "-d", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: line 2:") and "neither interior nor boundary" in err


@pytest.mark.parametrize(
    "name, text, where",
    [
        ("t.txt", "123,134\n123,134,123\n", "line 2"),
        ("t.json", json.dumps([{"n": 4, "cells": [[1, 2, 3], [3, 2, 1], [1, 3, 4]]}]), "entry 1"),
    ],
    ids=["digits", "json"],
)
def test_regularity_rejects_a_repeated_cell(tmp_path, capsys, name, text, where):
    # the reader keeps a cell listed twice, so the library's check sees it
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "regularity", str(path), "-n", "4", "-d", "2")
    assert code == 2 and out == "" and err == f"error: {where}: repeated cells\n"


@pytest.mark.parametrize(
    "n, d, line, wall",
    [(5, 3, "1234,1245,2345,1235,1345", "(1, 2, 3)"), (3, 1, "12,23,13", "(1,)")],
    ids=["c53", "c31"],
)
def test_regularity_rejects_overlapping_cells(tmp_path, capsys, n, d, line, wall):
    path = tmp_path / "t.txt"
    path.write_text(line + "\n")
    code, out, err = run(capsys, "regularity", str(path), "-n", str(n), "-d", str(d))
    assert code == 2 and out == ""
    assert err == f"error: line 1: the two cells of wall {wall} lie on one side of it\n"


@pytest.mark.parametrize("text", ["", "\n  \n\n", "[]\n"], ids=["empty", "blank", "json"])
def test_regularity_rejects_a_file_without_triangulations(tmp_path, capsys, text):
    path = tmp_path / "t.txt"
    path.write_text(text)
    code, out, err = run(capsys, "regularity", str(path), "-n", "9", "-d", "4")
    assert code == 2 and out == "" and err == f"error: no triangulation in {path}\n"


def test_regularity_accepts_a_trailing_comma(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("123,134,\n")
    code, out, _ = run(capsys, "regularity", str(path), "-n", "4", "-d", "2")
    assert code == 0 and out == "line 1: REGULAR w = (0, 0, 0, 1)\n"


def test_regularity_rejects_a_negative_number_of_trials(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("123,134,145,156\n")
    code, out, err = run(capsys, "regularity", str(path), "-n", "6", "-d", "2", "--random-trials", "-3")
    assert code == 2 and out == "" and err == "error: --random-trials must be at least 0, not -3\n"


@pytest.mark.parametrize("n, d", [(5, 1), (5, 0), (5, 5)])
def test_paths_rejects_a_dimension_outside_2_to_n(capsys, n, d):
    code, out, err = run(capsys, "paths", "-n", str(n), "-d", str(d))
    assert code == 2 and out == "" and err == f"error: paths needs 2 <= d < n, not n = {n}, d = {d}\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fiber", "-n", "6"])
    assert exc.value.code == 2


def test_params_must_match_n(tmp_path, capsys):
    code, out, err = run(capsys, "gale", "-n", "5", "-d", "2", "--params", "lemma47-c94")
    assert code == 2 and out == "" and "not n = 5" in err
    path = tmp_path / "t.txt"
    path.write_text("123,134\n")
    code, out, err = run(
        capsys, "regularity", str(path), "-n", "4", "-d", "2", "--params", "1,2,3"
    )
    assert code == 2 and out == "" and "not n = 4" in err


@pytest.mark.parametrize(
    "argv, spec, count",
    [
        (["fiber", "-n", "6", "-d", "2", "--dprime", "4"], "1,2", 2),
        (["paths", "-n", "6", "-d", "3"], "1,2,3", 3),
        (["paths", "-n", "10", "-d", "9"], "lemma47-c95", 9),
    ],
)
def test_params_with_at_most_d_points_name_their_count(tmp_path, capsys, argv, spec, count):
    """The count is reported, not the 1 <= d < n check of those points."""
    want = f"error: parameters {spec!r} give {count} points, not n = {argv[2]}\n"
    code, out, err = run(capsys, *argv, "--params", spec)
    assert (code, out, err) == (2, "", want)
    if spec[0].isdigit():
        path = tmp_path / "params.txt"
        path.write_text(spec + "\n")
        code, out, err = run(capsys, *argv, "--params", f"@{path}")
        assert (code, out, err) == (2, "", want.replace(repr(spec), repr(f"@{path}")))


@pytest.mark.parametrize("direction", ["--dir=0", "--dir=-1", "--dir=7"])
def test_paths_general_rejects_direction_out_of_range(capsys, direction):
    code, out, err = run(capsys, "paths-general", "remark-ubc", direction)
    assert code == 2 and out == "" and "is not a coordinate" in err


def test_regularity_rejects_a_cell_short_of_the_polytope(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("123\n")
    code, out, err = run(capsys, "regularity", str(path), "-n", "4", "-d", "2")
    assert code == 2 and out == "" and "neither interior nor boundary" in err
    path.write_text("1234\n")
    code, out, _ = run(capsys, "regularity", str(path), "-n", "4", "-d", "2")
    assert code == 0 and out.startswith("line 1: REGULAR")
    # the simplex C(4,3) leaves no unknown (d' - d = 0): its heights are zero
    code, out, _ = run(capsys, "regularity", str(path), "-n", "4", "-d", "3")
    assert code == 0 and out == "line 1: REGULAR w = (0, 0, 0, 0)\n"


def test_regularity_witness_of_a_segment_subdivision_reproduces_it(tmp_path, capsys):
    # at d = 1 point 2 is no vertex: its height must lift it above the cell 13
    from cyclicfiber.coherence import regular_subdivision_from_heights
    from cyclicfiber.cyclic import standard_params

    path = tmp_path / "t.txt"
    path.write_text("13,34\n")
    code, out, _ = run(capsys, "regularity", str(path), "-n", "4", "-d", "1", "--json")
    assert code == 0
    (record,) = json.loads(out.splitlines()[-1])["results"]
    w = [Fraction(x) for x in record["witness"]]
    assert regular_subdivision_from_heights(standard_params(4, 1), w).cells == ((1, 3), (3, 4))


def test_regularity_names_a_one_sided_wall_of_segments_that_miss_a_point(tmp_path, capsys):
    # every wall is shared or on the boundary, yet point 4 is in no cell's
    # span: segments that pair every wall on opposite sides span every point,
    # so these pair some wall on one side, and (1,) comes first
    path = tmp_path / "t.txt"
    path.write_text("12,13,23,56,57,67\n")
    code, out, err = run(capsys, "regularity", str(path), "-n", "7", "-d", "1")
    assert code == 2 and out == ""
    assert "line 1: the two cells of wall (1,) lie on one side of it" in err


def test_regularity_rejects_a_lower_dimensional_cell(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("12\n")
    code, out, err = run(capsys, "regularity", str(path), "-n", "4", "-d", "2")
    assert code == 2 and out == "" and "lower-dimensional" in err


@pytest.mark.parametrize("source", ["inline", "file"])
def test_params_with_a_zero_denominator(tmp_path, capsys, source):
    spec = "1/0,2,3,4"
    if source == "file":
        path = tmp_path / "params.txt"
        path.write_text(spec + "\n")
        spec = f"@{path}"
    code, out, err = run(capsys, "gale", "-n", "4", "-d", "2", "--params", spec)
    assert code == 2 and out == "" and err.startswith("error: zero denominator")


def test_paths_general_rejects_a_zero_denominator(tmp_path, capsys):
    mat = tmp_path / "m.mat"
    mat.write_text("0 1 2 4\n0 0 1/0 0\n0 0 0 1\n")
    code, out, err = run(capsys, "paths-general", str(mat))
    assert code == 2 and out == "" and err.startswith("error: zero denominator")


@pytest.mark.parametrize("text", ["", "# a header\n\n   # and nothing else\n", ",\n"])
def test_paths_general_rejects_an_empty_matrix(tmp_path, capsys, text):
    mat = tmp_path / "m.mat"
    mat.write_text(text)
    code, out, err = run(capsys, "paths-general", str(mat))
    assert code == 2 and out == "" and err == "error: empty matrix\n"


def test_paths_general_on_a_segment(tmp_path, capsys):
    mat = tmp_path / "m.mat"
    mat.write_text("0 1\n")
    code, out, _ = run(capsys, "paths-general", str(mat))
    assert code == 0 and out == "1 coherent of 1 monotone paths (direction x1)\n  1-2\n"


def test_fiber_certify_output_is_pinned(capsys):
    """The printed systems and certificates of `fiber --certify`, byte for byte."""
    golden = Path(__file__).with_name("golden") / "fiber_n6_d2_dprime4_certify.txt"
    code, out, _ = run(capsys, "fiber", "-n", "6", "-d", "2", "--dprime", "4", "--certify")
    assert code == 0 and out == golden.read_text()


def test_fiber_json_output_is_pinned(capsys):
    """`fiber -n 8 -d 3 --dprime 5 --json`, the flagging of the fiber-c83
    workload at t = 1..8, byte for byte."""
    golden = Path(__file__).with_name("golden") / "fiber_n8_d3_dprime5.json"
    code, out, _ = run(capsys, "fiber", "-n", "8", "-d", "3", "--dprime", "5", "--json")
    assert code == 0 and out == golden.read_text()


def test_fiber_n9_output_is_pinned(capsys):
    """The text stdout of `fiber` at all 28 triples (9, d, d'), byte for
    byte: the elements and coherent ones by ranking, the coherent f-vector,
    chi and the number of incoherent elements."""
    golden = Path(__file__).with_name("golden") / "fiber_n9.txt"
    out = ""
    for d in range(1, 8):
        for dp in range(d + 1, 9):
            code, text, err = run(capsys, "fiber", "-n", "9", "-d", str(d), "--dprime", str(dp))
            assert (code, err) == (0, ""), (d, dp)
            out += text
    assert out == golden.read_text()


ROOT = Path(__file__).resolve().parents[1]


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("script", ["nonregularity_certificates", "fiber_trichotomy"])
def test_script_output_is_pinned(script):
    """The stdout of a script, byte for byte: the printed Q^n systems and
    certificates at two realizations, and the decisions at nine."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")],
        capture_output=True, text=True, env=_env_with_src(), check=False,
    )
    golden = Path(__file__).with_name("golden") / f"{script}.txt"
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == golden.read_text()


# (d, d') -> proper elements, coherent ones, chi of the proper part and the
# coherent f-vector of the Baues poset of C(10,d') -> C(10,d) at t = 1..10
N10_FIBERS = {
    (1, 3): (116, 32, 0, (16, 16)),
    (1, 4): (3074, 226, 2, (58, 168)),
    (1, 5): (4384, 928, 0, (128, 800)),
    (1, 6): (5810, 2466, 2, (198, 2268)),
    (1, 7): (6256, 4512, 0, (240, 4272)),
    (1, 8): (6498, 6050, 2, (254, 5796)),
    (1, 9): (6560, 6560, 0, (256, 6304)),
    (2, 4): (1690, 40, 0, (20, 20)),
    (2, 5): (8168, 644, 2, (178, 466)),
    (2, 6): (18650, 3148, 0, (522, 2626)),
    (2, 7): (20088, 9978, 2, (1026, 8952)),
    (2, 8): (20730, 16776, 0, (1320, 15456)),
    (2, 9): (20792, 20792, 2, (1430, 19362)),
    (3, 5): (8180, 44, 0, (22, 22)),
    (3, 6): (72442, 1270, 2, (350, 920)),
    (3, 7): (110920, 10842, 0, (1730, 9112)),
    (3, 8): (123050, 53474, 2, (5164, 48310)),
    (3, 9): (123336, 121224, 0, (8434, 112790)),
    (4, 6): (14660, 44, 0, (22, 22)),
    (4, 7): (33874, 1422, 2, (400, 1022)),
    (4, 8): (47830, 11524, 0, (1890, 9634)),
    (4, 9): (48756, 43394, 2, (4608, 38786)),
    (5, 7): (4196, 40, 0, (20, 20)),
    (5, 8): (7906, 1018, 2, (287, 731)),
    (5, 9): (8836, 6264, 0, (1047, 5217)),
    (6, 8): (290, 32, 0, (16, 16)),
    (6, 9): (372, 326, 2, (96, 230)),
    (7, 9): (20, 20, 0, (10, 10)),
} | {(d, d + 1): (2, 2, 2, (2, 0)) for d in range(1, 9)}


@pytest.mark.skipif(
    not os.environ.get("CYCLICFIBER_N10"), reason="set CYCLICFIBER_N10=1 to run fiber at every n = 10 triple"
)
def test_fiber_at_every_n10_triple():
    # opt-in: about 6 min in all; one process per triple keeps the peak RSS
    # at that of the largest, (10,3,9), about 135 MB
    assert len(N10_FIBERS) == 36
    for (d, d_prime), want in sorted(N10_FIBERS.items()):
        argv = ["fiber", "-n", "10", "-d", str(d), "--dprime", str(d_prime), "--json"]
        proc = subprocess.run(
            [sys.executable, "-m", "cyclicfiber.cli", *argv],
            capture_output=True, text=True, env=_env_with_src(), check=False,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        report = json.loads(proc.stdout)
        got = (report["proper_elements"], sum(report["coherent_by_ranking"].values()),
               report["euler_characteristic"], tuple(report["coherent_f_vector"]))
        assert got == want, (d, d_prime)


def test_tables_reproduces_every_entry(capsys):
    """Every line of `tables`, byte for byte: each published entry with `ok`
    and the closing line."""
    golden = Path(__file__).with_name("golden") / "tables.txt"
    code, out, err = run(capsys, "tables")
    assert code == 0 and err == "" and out == golden.read_text()


def test_tables_enumerates_each_triangulation_set_once(monkeypatch, capsys):
    """`tables` counts each C(n,d) by one `flip_graph_stats` call, shared by
    its triangulation and flip-edge entries, and packs one set, C(9,4), once,
    for its regularity sweep."""
    from cyclicfiber import subdiv

    packing, counting, packed, counted = (
        subdiv.enumerate_triangulations, subdiv.flip_graph_stats, [], [])

    def recorded_packing(n, d):
        packed.append((n, d))
        return packing(n, d)

    def recorded_counting(n, d):
        counted.append((n, d))
        return counting(n, d)

    monkeypatch.setattr(subdiv, "enumerate_triangulations", recorded_packing)
    monkeypatch.setattr(subdiv, "flip_graph_stats", recorded_counting)
    assert run(capsys, "tables")[0] == 0
    assert packed == [(9, 4)]
    assert len(counted) == len(set(counted)) == 16


def test_tables_takes_no_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--json"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --json" in out.err


def test_regularity_random_trials_with_a_seed(tmp_path, capsys):
    # regular at some realizations of C(9,3) and not at t = 1..9, so the seed
    # that draws the trial realizations changes the count
    path = tmp_path / "t.txt"
    path.write_text(catalog.PARAM_DEPENDENT[(9, 3)]["cells"] + "\n")
    argv = ["regularity", str(path), "-n", "9", "-d", "3", "--random-trials", "2"]
    code, out, _ = run(capsys, *argv, "--seed", "1")
    assert code == 1 and out.endswith("  [regular at 1/2 random realizations]\n")
    code, out, _ = run(capsys, *argv, "--seed", "1", "--json")
    (record,) = json.loads(out.splitlines()[-1])["results"]
    assert code == 1 and record["regular_random_trials"] == [1, 2]
    code, out, _ = run(capsys, *argv)  # the default seed 0
    assert code == 1 and out.endswith("  [regular at 0/2 random realizations]\n")


def test_seed_is_an_option_of_regularity_alone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fiber", "-n", "6", "-d", "2", "--dprime", "4", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
