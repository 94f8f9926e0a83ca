import pytest

from dnfusion import DNumber, Frame, Granulation, TrapezoidalFuzzyNumber


@pytest.fixture(scope="session")
def scale():
    """Five-level linguistic scale on a [0, 1] assessment axis.

    Adjacent levels overlap slightly, so the granules are not mutually
    exclusive and the scale has a small positive exclusive coefficient.
    """
    return Granulation(
        (
            ("low", TrapezoidalFuzzyNumber(0.04, 0.10, 0.18, 0.23)),
            ("fairly low", TrapezoidalFuzzyNumber(0.17, 0.22, 0.36, 0.42)),
            ("medium", TrapezoidalFuzzyNumber(0.32, 0.41, 0.58, 0.65)),
            ("fairly high", TrapezoidalFuzzyNumber(0.58, 0.63, 0.80, 0.86)),
            ("high", TrapezoidalFuzzyNumber(0.72, 0.78, 0.92, 0.97)),
        )
    )


@pytest.fixture(scope="session")
def score_frame():
    return Frame(("low", "fairly low", "medium", "fairly high", "high"))


@pytest.fixture()
def expert_pair(score_frame):
    # Two assessments of one component on the five-level scale; the masses on
    # {low, fairly low} and {medium} disagree strongly, which is what makes
    # the discount-then-combine pipeline interesting.
    d1 = DNumber(
        score_frame,
        {
            ("low",): 0.12,
            ("low", "fairly low"): 0.7,
            ("medium",): 0.02,
            ("high", "medium"): 0.1,
            ("fairly high",): 0.06,
        },
    )
    d2 = DNumber(
        score_frame,
        {
            ("low",): 0.1,
            ("low", "fairly low"): 0.06,
            ("medium",): 0.6,
            ("high", "medium"): 0.2,
            ("fairly high",): 0.04,
        },
    )
    return d1, d2
