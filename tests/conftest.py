import pytest

from monosep import attention as attn


@pytest.fixture
def score_builds(monkeypatch):
    """Shapes of every chunk-score build made by the attention module:
    local attention builds its whole chunks' scores in one call and a
    ragged last chunk's in another."""
    shapes = []
    original = attn._chunk_scores

    def counting(q3, k3, gamma):
        scores = original(q3, k3, gamma)
        shapes.append(scores.shape)
        return scores

    monkeypatch.setattr(attn, "_chunk_scores", counting)
    return shapes
