"""Regenerate every table and figure of the paper, one bench per id."""

import pytest

from repro.bench.figures import ALL_IDS


@pytest.mark.parametrize("figure_id", ALL_IDS)
def test_regenerate(figure_runner, figure_id):
    figure_runner(figure_id)
