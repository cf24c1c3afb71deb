import numpy as np
import pytest

from qmsep.harness import T_MAX_CAP
from qmsep import streams
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
    assert np.array_equal(s.normal(size=2), ref.normal(size=2))
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
                assert np.array_equal(s.normal(size=3), ref.normal(size=3))
            else:
                assert np.array_equal(s.gen.random(3), ref.random(3))
            for _ in range(3):
                assert s.integers(0, 3) == ref.integers(0, 3)
                assert s.random() == ref.random()
                assert np.array_equal(s.random(2), ref.random(2))
            assert np.array_equal(s.integers(0, 9, 4), ref.integers(0, 9, 4))


@pytest.mark.parametrize("n", [0, 1, 2, 127, 128, 4096])
def test_skip_equals_drawing_that_many_doubles(n):
    # on a stream in Python and on one handed to numpy, each with the kept
    # uint32 half of a width-3 draw, which doubles leave kept
    for seed in SEEDS:
        for handoff in (False, True):
            s, ref = _pair(seed)
            if handoff:
                s.normal()
                ref.normal()
            assert s.integers(0, 3) == ref.integers(0, 3)
            s.skip(n)
            ref.random(n)
            assert s.integers(0, 3) == ref.integers(0, 3)
            assert s.random() == ref.random()


@pytest.mark.parametrize("n", [2 ** 40, 2 ** 64 - 1])
def test_skip_equals_numpy_advance(n):
    # PCG64.advance drops a kept half, so it is the reference only on a
    # stream holding none; skip keeps one, as doubles would
    for seed in SEEDS:
        for kept in (False, True):
            s, ref = _pair(seed)
            s.random()
            ref.random()
            if kept:
                assert s.integers(0, 3) == ref.integers(0, 3)
                half = ref.bit_generator.state["uinteger"]
            s.skip(n)
            ref.bit_generator.advance(n)
            state = s.gen.bit_generator.state
            assert state["state"] == ref.bit_generator.state["state"]
            assert (state["has_uint32"], state["uinteger"]) == (
                (1, half) if kept else (0, 0))


@pytest.mark.parametrize("n", [0, 1, 5, 300])
def test_skip_before_the_first_draw_waits_for_it(n, monkeypatch):
    # a skip on a stream not yet seeded seeds nothing; the first draw of
    # each kind, Python or numpy, then lands where n doubles would leave it
    seeded = []

    def counting(pool, _real=streams._pcg64_seed):
        seeded.append(1)
        return _real(pool)

    monkeypatch.setattr(streams, "_pcg64_seed", counting)
    for seed in SEEDS:
        for first in ("random", "integers", "normal", "gen.random"):
            s, ref = _pair(seed)
            s.skip(n)
            assert seeded == []
            ref.random(n)
            if first == "random":
                assert s.random() == ref.random()
            elif first == "integers":
                assert s.integers(0, 7) == ref.integers(0, 7)
            elif first == "normal":
                assert s.normal() == ref.normal()
            else:
                assert np.array_equal(s.gen.random(3), ref.random(3))
            assert len(seeded) == 1
            seeded.clear()
            assert s.random() == ref.random()
        # two skips before the first draw add up
        s, ref = _pair(seed)
        s.skip(n)
        s.skip(3)
        ref.random(n + 3)
        assert s.integers(0, 7) == ref.integers(0, 7)
        assert s.random() == ref.random()
        assert len(seeded) == 1
        seeded.clear()


# split paths of depth 0 to 2
PATHS = ((), ("world",), (("w", 5), 2 ** 40 + 3))


@pytest.mark.parametrize("l", range(1, 7))
def test_table_bit_reads_the_sized_draws_table(l):
    # entry x of integers(0, 2, size=2^l) drawn as the stream's first draw,
    # read in any order and without moving the stream, whose first draws
    # stay the reference's
    for seed in SEEDS:
        for labels in PATHS:
            s, ref = _pair(seed, labels)
            _, first = _pair(seed, labels)
            want = ref.integers(0, 2, size=1 << l).tolist()
            got = [s.table_bit(x) for x in reversed(range(1 << l))][::-1]
            assert got == want
            assert s.random() == first.random()
            assert s.integers(0, 7) == first.integers(0, 7)


@pytest.mark.parametrize("before", ["random", "kept", "skip", "skip+kept",
                                    "kept+skip"])
def test_table_bit_continues_a_stream_that_has_drawn(before):
    # on a stream that has drawn or skipped, the table is the one its next
    # sized draw would be, and a kept uint32 half is its entry 0
    def run(g):
        for step in before.split("+"):
            if step == "random":
                g.random()
            elif step == "kept":
                g.integers(0, 3)  # keeps the high half of a 64-bit output
            else:
                g.skip(5) if isinstance(g, Stream) else g.random(5)
        return g

    for seed in SEEDS:
        s, ref = _pair(seed)
        _, after = _pair(seed)
        run(s)
        want = run(ref).integers(0, 2, size=64).tolist()
        assert [s.table_bit(x) for x in range(64)] == want
        run(after)
        assert s.random() == after.random()
        assert s.integers(0, 7) == after.integers(0, 7)


@pytest.mark.parametrize("handoff", ["normal", "gen"])
def test_table_bit_refuses_a_stream_numpy_serves(handoff):
    # after a hand-off numpy holds the state, so there is nothing to read
    s = Stream(4).split("x")
    s.normal() if handoff == "normal" else s.gen
    with pytest.raises(ValueError, match="numpy"):
        s.table_bit(0)


def test_table_bit_rejects_a_negative_entry():
    with pytest.raises(ValueError):
        Stream(1).table_bit(-3)
