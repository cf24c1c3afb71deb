import numpy as np
import pytest

from qmsep.streams import Stream, _label_key


def test_same_seed_same_draws():
    a = Stream(123).random(10)
    b = Stream(123).random(10)
    assert np.array_equal(a, b)


def test_split_is_stable_and_independent():
    root = Stream(7)
    c1 = root.split("alpha").random(5)
    c2 = root.split("alpha").random(5)
    c3 = root.split("beta").random(5)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, c3)


def test_integer_and_string_labels_coexist():
    root = Stream(7)
    assert np.array_equal(root.split(3).random(4), root.split(3).random(4))
    # label path is part of the stream identity
    assert root.split(3).path != root.split("3x").path


def test_split_order_independent():
    root = Stream(11)
    kids = [root.split(i) for i in range(4)]
    draws = [k.random() for k in kids]
    again = [Stream(11).split(i).random() for i in (2, 0, 3, 1)]
    assert draws[2] == again[0] and draws[0] == again[1]
    assert draws[3] == again[2] and draws[1] == again[3]


def test_negative_label_rejected():
    with pytest.raises(ValueError):
        Stream(0).split(-1)


def test_nested_paths_differ():
    a = Stream(5).split("x").split("y")
    b = Stream(5).split("y").split("x")
    assert not np.array_equal(a.random(4), b.random(4))


@pytest.mark.parametrize("labels", [(), (0,), ("u", 3), (("synth", 5), "x", 7),
                                    (2 ** 32,), (0, 2 ** 40 + 3, 2 ** 70)])
def test_split_chain_draws_as_its_seed_sequence(labels):
    # seeds of one to five uint32 words, below and above SeedSequence's
    # four-word pool
    for seed in (0, 2024, 2 ** 32, 2 ** 64 + 5, 2 ** 130):
        s = Stream(seed)
        for label in labels:
            s = s.split(label)
        path = tuple(_label_key(label) for label in labels)
        ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))
        assert np.array_equal(s.random(6), ref.random(6))
        assert np.array_equal(s.integers(0, 1 << 40, 5), ref.integers(0, 1 << 40, 5))


def test_negative_seed_raises_on_first_draw():
    with pytest.raises(ValueError):
        Stream(-1).random()
    with pytest.raises(ValueError):
        Stream(-(2 ** 70)).split(3).random()


def test_generator_is_built_on_first_draw(monkeypatch):
    built = []
    seed_sequence = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(1)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    s = Stream(9).split("a").split(2)
    assert built == []
    s.random()
    s.random()
    assert len(built) == 1
