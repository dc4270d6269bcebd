import pytest

from monosep import autodiff as ad


@pytest.fixture
def score_builds(monkeypatch):
    """Shapes of every ``relu_squared`` call made through the autodiff
    module; the local attention branch builds its chunk scores with one."""
    shapes = []
    original = ad.relu_squared

    def counting(a):
        shapes.append(ad.as_tensor(a).shape)
        return original(a)

    monkeypatch.setattr(ad, "relu_squared", counting)
    return shapes
