import numpy as np
import pytest

from qmsep.harness import T_MAX_CAP
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
    # a stream that never draws costs nothing; scalar and int-sized draws
    # step PCG64 in Python, and only the first draw that numpy alone serves
    # builds a Generator, which then continues the reference stream
    ref = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(
        _label_key("a"), 2)))
    built = {"SeedSequence": 0, "Generator": 0}
    for name in ("SeedSequence", "default_rng", "Generator"):
        def counting(*args, _real=getattr(np.random, name),
                     _key=name if name in built else "Generator", **kwargs):
            built[_key] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.random, name, counting)
    root = Stream(9)
    s = root.split("a").split(2)
    root.split("b").split("c")
    assert built == {"SeedSequence": 0, "Generator": 0}
    assert s.random() == ref.random()
    assert np.array_equal(s.random(3), ref.random(3))
    assert s.integers(0, 5) == ref.integers(0, 5)
    assert root.split("b").integers(0, 2 ** 40) >= 0
    # the root's pool is the one SeedSequence, shared by every stream under it
    assert built == {"SeedSequence": 1, "Generator": 0}
    assert np.array_equal(s.gen.normal(size=2), ref.normal(size=2))
    assert s.integers(0, 5) == ref.integers(0, 5)
    assert np.array_equal(s.gen.random(2), ref.random(2))
    assert built == {"SeedSequence": 1, "Generator": 1}


# range widths hi - lo: one value, which draws nothing; Lemire's method on
# next_uint32 with rejection rates near 0, 1/2 (2^31 + 1) and 1/4 (3 2^30);
# next_uint32 as it is (2^32); Lemire's on next_uint64; the attack's cap on t
WIDTHS = (1, 2, 3, 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32, 2 ** 32 + 1, T_MAX_CAP)
# one to five uint32 words
SEEDS = (0, 2024, 2 ** 32, 2 ** 64 + 5, 2 ** 100 + 1, 2 ** 130)


def _pair(seed, labels=("x", 3)):
    s, path = Stream(seed), []
    for label in labels:
        s = s.split(label)
        path.append(_label_key(label))
    return s, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


@pytest.mark.parametrize("width", WIDTHS)
def test_scalar_integers_draw_as_numpy(width):
    for seed in SEEDS:
        s, ref = _pair(seed)
        for low in (0, -7, -(2 ** 63)) * 8:
            got, want = s.integers(low, low + width), ref.integers(low, low + width)
            assert got == want and type(got) is type(want)
        got, want = s.integers(width), ref.integers(width)
        assert got == want and type(got) is type(want)


def test_scalar_draws_interleave_as_numpy():
    # 32-bit draws take one half of a 64-bit output and keep the other for
    # the next 32-bit draw; doubles and 64-bit draws leave it kept
    for seed in SEEDS:
        s, ref = _pair(seed, (("u", 1), 7))
        for width in WIDTHS * 3:
            assert s.integers(0, width) == ref.integers(0, width)
            got, want = s.random(), ref.random()
            assert got == want and type(got) is type(want)
            assert s.integers(1, 1 + width) == ref.integers(1, 1 + width)
            got, want = s.random(2), ref.random(2)
            assert np.array_equal(got, want) and got.dtype == want.dtype
        assert s.random(0).shape == ref.random(0).shape == (0,)


@pytest.mark.parametrize("handoff", ["normal", "gen.random"])
def test_handoff_mid_stream_continues_the_reference(handoff):
    # once numpy serves a draw it serves every later one, from the exact
    # state, kept uint32 half included (width 3 leaves one kept, width 2^33
    # none)
    for seed in SEEDS:
        for width in (3, 2 ** 33):
            s, ref = _pair(seed)
            assert s.random() == ref.random()
            assert s.integers(0, width) == ref.integers(0, width)
            if handoff == "normal":
                assert np.array_equal(s.gen.normal(size=3), ref.normal(size=3))
            else:
                assert np.array_equal(s.gen.random(3), ref.random(3))
            for _ in range(3):
                assert s.integers(0, 3) == ref.integers(0, 3)
                assert s.random() == ref.random()
                assert np.array_equal(s.random(2), ref.random(2))
            assert np.array_equal(s.integers(0, 9, 4), ref.integers(0, 9, 4))
