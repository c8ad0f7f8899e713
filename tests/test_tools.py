"""The scripts under tools/, run in-process."""

import importlib.util
from pathlib import Path

import pytest

from mllgraph.corpus import SyntheticConfig, generate_synthetic, split_by_subject
from mllgraph.glove import GloveConfig
from mllgraph.layers import EncoderConfig
from mllgraph.trainer import TrainConfig, VariantSpec, run_pipeline, save_checkpoint

RESAVE = Path(__file__).resolve().parents[1] / "tools" / "checkpoint_resave.py"


@pytest.fixture(scope="module")
def resave():
    spec = importlib.util.spec_from_file_location("checkpoint_resave", RESAVE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkpoint_resave_reports_every_path_and_goes_on(resave, tmp_path, capsys):
    """A missing file, a directory and a corrupted file each print `does not load`;
    the files after them are still checked, and the run exits 1."""
    data = generate_synthetic(SyntheticConfig(n_samples=60, sp_count=2, as_count=3, feature_dim=4, seed=1))
    train, val, _ = split_by_subject(data, (0.6, 0.2, 0.2), seed=0)
    cfg = TrainConfig(epochs=1, glove=GloveConfig(d=4, epochs=5), encoder=EncoderConfig(layer_widths=(4,)))
    good = tmp_path / "good.mllg"
    save_checkpoint(run_pipeline(train, val, VariantSpec("MLL-GCN"), cfg).checkpoint, good)
    corrupt = tmp_path / "corrupt.mllg"
    raw = good.read_bytes()
    corrupt.write_bytes(raw[:-1] + bytes([raw[-1] ^ 1]))  # one bit of the CRC flipped
    paths = [str(tmp_path / "missing.mllg"), str(tmp_path), str(corrupt), str(good)]

    assert resave.main(paths) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[:2] for line in lines] == [
        [paths[0], "does not load"], [paths[1], "does not load"], [paths[2], "does not load"],
        [paths[3], "re-saves to the same bytes"],
    ]
    assert resave.main([str(good)]) == 0
    assert resave.main([]) == 1
