"""The import-layering lint: clean on the real tree, sharp on bad ones."""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
CHECKER = REPO_ROOT / "tools" / "check_imports.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_imports", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


def test_the_real_tree_is_clean(capsys):
    assert checker.main([str(CHECKER), str(REPO_ROOT / "src" / "repro")]) == 0


def _fake_tree(tmp_path, files):
    root = tmp_path / "repro"
    root.mkdir()
    (root / "__init__.py").write_text("")
    for relpath, body in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.parent != root and not (path.parent / "__init__.py").exists():
            (path.parent / "__init__.py").write_text("")
        path.write_text(body)
    return root


def test_upward_import_is_flagged(tmp_path, capsys):
    root = _fake_tree(tmp_path, {
        "sim/event.py": "from repro.core.offload import offload\n",
    })
    assert checker.main([str(CHECKER), str(root)]) == 1
    assert "upward dependency" in capsys.readouterr().out


def test_cross_module_private_import_is_flagged(tmp_path, capsys):
    root = _fake_tree(tmp_path, {
        "core/offload.py": "from repro.runtime.protocol import _secret\n",
    })
    assert checker.main([str(CHECKER), str(root)]) == 1
    assert "private name '_secret'" in capsys.readouterr().out


def test_same_module_private_import_is_allowed(tmp_path, capsys):
    root = _fake_tree(tmp_path, {
        "core/offload.py": "from repro.core.staging import _helper\n",
    })
    assert checker.main([str(CHECKER), str(root)]) == 0


def test_function_level_imports_are_exempt(tmp_path, capsys):
    root = _fake_tree(tmp_path, {
        "soc/config.py": (
            "def features():\n"
            "    from repro.runtime.strategies import variant_features\n"
            "    return variant_features()\n"),
    })
    assert checker.main([str(CHECKER), str(root)]) == 0


def test_unknown_module_is_flagged(tmp_path, capsys):
    root = _fake_tree(tmp_path, {
        "mystery.py": "import repro.errors\n",
    })
    assert checker.main([str(CHECKER), str(root)]) == 1
    assert "not in the layer table" in capsys.readouterr().out


def test_diag_submodule_allowlist_is_enforced(tmp_path, capsys):
    # repro.sim.diag is imported by the kernel itself, so importing the
    # kernel (or anything outside its allowlist) from it is a cycle.
    root = _fake_tree(tmp_path, {
        "sim/diag.py": "from repro.sim.kernel import Simulator\n",
    })
    assert checker.main([str(CHECKER), str(root)]) == 1
    assert "SUBMODULE_RULES" in capsys.readouterr().out


def test_diag_submodule_allowlist_permits_leaf_imports(tmp_path, capsys):
    root = _fake_tree(tmp_path, {
        "sim/diag.py": ("from repro import flags\n"
                        "from repro.errors import ProtocolError\n"
                        "from repro.sim.event import Event\n"),
    })
    assert checker.main([str(CHECKER), str(root)]) == 0


def test_tiles_submodule_allowlist_is_enforced(tmp_path, capsys):
    # repro.soc.tiles must stay leaf-like: cluster/soc/core all build
    # on it, so depending on soc.config from it recreates the cycle.
    root = _fake_tree(tmp_path, {
        "soc/tiles.py": "from repro.soc.config import SoCConfig\n",
    })
    assert checker.main([str(CHECKER), str(root)]) == 1
    assert "repro.soc.tiles" in capsys.readouterr().out


def test_tiles_submodule_allowlist_permits_leaf_imports(tmp_path, capsys):
    root = _fake_tree(tmp_path, {
        "soc/tiles.py": ("from repro.errors import ConfigError\n"
                         "from repro.kernels.base import KernelTiming\n"),
    })
    assert checker.main([str(CHECKER), str(root)]) == 0
