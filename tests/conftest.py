import pytest

from sheetcharge import increments


@pytest.fixture(params=[3, 7, 9])
def small_tiles(request, monkeypatch):
    """Tiles of the children of 2^7 or 2^9 parents: 3 is below the 2^7-parent floor."""
    monkeypatch.setattr(increments, "_CHUNK_BITS", request.param)
    monkeypatch.setattr(increments, "_CHUNK_ROWS", 1 << request.param)
    return request.param
