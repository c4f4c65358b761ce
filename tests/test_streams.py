import pathlib

import numpy as np
import pytest

from polyxport import presets, streams
from polyxport.microsim import MicroConfig, MicroRuntime


def test_duplicate_salt_is_rejected():
    with pytest.raises(RuntimeError, match="'a' and 'b'"):
        streams._check_unique({"a": 0x7A01, "b": 0x7A01})


def test_grain_offsets_and_chunk_offsets_differ():
    # chunk k's annealed offsets once replayed grain k's lattice offset
    seed = 7
    scene = presets.two_squares_2d(mode="random-offset")
    rt = MicroRuntime(scene, MicroConfig(r=1e-2, seed=seed,
                                         resample_offsets=True))
    for g in scene.grains:
        grain_draw = streams.rng("micro.grain_offset", seed, g.id).uniform(
            0.0, 1.0, scene.dimension)
        chunk_draw = streams.rng("micro.chunk_offsets", seed, g.id).uniform(
            0.0, 1.0, scene.dimension)
        assert not np.array_equal(grain_draw, chunk_draw)
        omegas, _ = rt.resample_media(
            streams.rng("micro.chunk_offsets", seed, g.id), 1)
        lattice_omega = rt._media[g.id][1].lattice.omega
        assert np.array_equal(lattice_omega, grain_draw)
        assert not np.array_equal(lattice_omega, omegas[0, 0])


def test_every_salt_names_a_stream_in_use():
    src = pathlib.Path(streams.__file__).parent
    text = "".join(path.read_text(encoding="utf-8")
                   for path in sorted(src.glob("*.py"))
                   if path.name != "streams.py")
    unused = [name for name in streams.SALTS if f'rng("{name}"' not in text]
    assert unused == []
