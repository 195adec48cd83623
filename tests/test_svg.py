import xml.etree.ElementTree as ET

import numpy as np
import pytest

from lossgeom import ModelParams, SweepSpec, emit_svg, run_sigma_z_sweep
from lossgeom.svgplot import SWEEP_STATISTICS


SVG = "{http://www.w3.org/2000/svg}"


def sweep_records():
    params = ModelParams(n_examples=30, n_classes=4, n_weights=40, hyperplane_dim=4)
    return run_sigma_z_sweep(params, SweepSpec(points=4, repeats=2))


def test_sweep_svg_is_well_formed_with_one_polyline_per_statistic(tmp_path):
    path = tmp_path / "sweep.svg"
    emit_svg(sweep_records(), "sweep", str(path))
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG}svg"
    polylines = root.findall(f"{SVG}polyline")
    assert len(polylines) == len(SWEEP_STATISTICS)
    for poly in polylines:
        points = poly.attrib["points"].split()
        assert len(points) == 4  # one vertex per grid point, repeats averaged
    labels = [t.text for t in root.findall(f"{SVG}text")]
    for name in SWEEP_STATISTICS:
        assert any(name in (label or "") for label in labels)


def test_sweep_svg_of_a_grid_from_zero_has_a_linear_axis(tmp_path):
    params = ModelParams(n_examples=30, n_classes=4, n_weights=40, hyperplane_dim=4)
    spec = SweepSpec(
        sigma_z_min=0.0, sigma_z_max=2.0, points=3, scale="linear", gamma=0.0, repeats=1
    )
    path = tmp_path / "sweep.svg"
    emit_svg(run_sigma_z_sweep(params, spec), "sweep", str(path))
    root = ET.parse(path).getroot()
    for poly in root.findall(f"{SVG}polyline"):
        assert "nan" not in poly.attrib["points"]
    labels = [t.text for t in root.findall(f"{SVG}text")]
    assert "sigma_z (linear scale)" in labels
    assert not any(label.startswith("1e") for label in labels)


def test_spectrum_svg_has_one_circle_per_eigenvalue(tmp_path):
    path = tmp_path / "spectrum.svg"
    eigenvalues = np.linspace(5.0, 0.0, 37)
    emit_svg(eigenvalues, "spectrum", str(path))
    root = ET.parse(path).getroot()
    assert len(root.findall(f"{SVG}circle")) == 37


def test_spectrum_svg_accepts_spectrum_objects(tmp_path):
    from lossgeom import eigh

    path = tmp_path / "eig.svg"
    emit_svg(eigh(np.diag([3.0, 2.0, 1.0])), "spectrum", str(path))
    assert len(ET.parse(path).getroot().findall(f"{SVG}circle")) == 3


def test_empty_input_errors_before_writing(tmp_path):
    path = tmp_path / "never.svg"
    with pytest.raises(ValueError, match="no sweep records"):
        emit_svg([], "sweep", str(path))
    with pytest.raises(ValueError, match="no eigenvalues"):
        emit_svg(np.empty(0), "spectrum", str(path))
    assert not path.exists()


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown plot kind"):
        emit_svg(np.ones(3), "histogram", str(tmp_path / "x.svg"))
