"""The public surface: what ``zklab`` re-exports agrees with each module's ``__all__``."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import zklab


def reexports():
    """(module, name) for every ``from .module import name`` in zklab/__init__.py."""
    tree = ast.parse(inspect.getsource(zklab))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_reexport_is_in_its_module_all():
    missing = [f"{mod}.{name}" for mod, name in reexports()
               if name not in getattr(importlib.import_module(f"zklab.{mod}"), "__all__", ())]
    assert missing == []


def test_every_all_entry_exists():
    for info in pkgutil.iter_modules(zklab.__path__):
        mod = importlib.import_module(f"zklab.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"zklab.{info.name}.__all__ lists {name!r}"


@pytest.mark.parametrize("owner, name", [
    (zklab, "in_band"), (zklab, "to_spectral"), (zklab, "to_physical"),
    (zklab, "symmetrize_symbol"), (zklab.Grid2D, "lattice_radius"),
    (zklab.SpaceTimeField, "from_fields"), (zklab.SpaceTimeField, "leakage_scale"),
    (zklab.Field, "__add__"), (zklab.Field, "__sub__"), (zklab.Field, "__mul__"),
    (zklab.Field, "__rmul__"), (zklab.Grid2D, "half_spectrum"), (zklab.EtdrkTableau, "band"),
    (zklab.dynamics.SpectralKernel, "nonlinear"), (zklab, "dealias_mask"),
    (zklab.SolverState, "field"), (zklab, "MultilinearSymbol"), (zklab, "increment_symbols"),
    pytest.param(zklab.spectral, "dealias_mask", id="spectral-dealias_mask"),
    *(pytest.param(zklab.dynamics.spectral_kernel(zklab.make_grid(16, 16, 1.0, 1.0),
                                                  zklab.DispersionForm.ORIGINAL),
                   name, id=f"SpectralKernel-{name}") for name in ("mask", "band_mask")),
    pytest.param(zklab.LPProjector(zklab.make_grid(16, 16, 1.0, 1.0)), "axis",
                 id="LPProjector-axis"),
])
def test_removed_names_stay_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize("owner, name", [
    pytest.param(owner, name, id=f"{owner.__name__}-{name}") for owner, name in [
        (zklab.lp_project, "axis"), (zklab.dyadic_shells, "axis"),
        (zklab.partition_values, "axis"), (zklab.LPProjector, "axis"),
        (zklab.picard_iterate, "nonlinear"),
        (zklab.rotate_to_symmetrized, "target"), (zklab.rotate_from_symmetrized, "target"),
        (zklab.rotate_to_symmetrized, "rotation"), (zklab.rotate_from_symmetrized, "rotation"),
        (zklab.RotationMap, "a"),
        (zklab.gaussian_bump, "x0"), (zklab.gaussian_bump, "y0"),
        (zklab.shell_field, "amplitude"), (zklab.cutoff_probe, "span"),
        (zklab.lambda3, "method"), (zklab.lambda4, "method"),
    ]])
def test_removed_parameters_stay_gone(owner, name):
    """Switches that nothing set are gone; each took the value it is now fixed at."""
    if dataclasses.is_dataclass(owner):
        assert name not in {field.name for field in dataclasses.fields(owner)}
    else:
        assert name not in inspect.signature(owner).parameters


def test_kernel_has_no_full_spectrum_nonlinear_multiplier():
    grid = zklab.make_grid(16, 16, 1.0, 1.0)
    assert not hasattr(zklab.dynamics.spectral_kernel(grid, zklab.DispersionForm.ORIGINAL),
                       "neg_dmask")


TRANSFORMS_2D = {"fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"}


def _named_outside(home, names):
    """file:line name of each attribute or from-import of ``names`` outside module ``home``."""
    package = pathlib.Path(zklab.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == f"{home}.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            used = ([node.attr] if isinstance(node, ast.Attribute)
                    else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                    else [])
            found += [f"{path.name}:{node.lineno} {n}" for n in used if n in names]
    return found


def test_only_spectral_calls_a_2d_transform():
    """Grid2D.to_physical / to_spectral are the package's one 2-D transform pair."""
    assert _named_outside("spectral", TRANSFORMS_2D) == []


def test_only_spectral_calls_to_spectral():
    """Outside ``spectral`` the forward transform runs only inside Grid2D.band_product,
    the one dealiased product of the stepper and the I-method."""
    assert _named_outside("spectral", {"to_spectral"}) == []


def test_only_dynamics_steps():
    """``dynamics._states`` is the package's one stepping loop: the stepper and its
    tableau are named nowhere else but in ``__init__``'s re-export."""
    found = _named_outside("dynamics", {"step_etdrk4", "etdrk4_tableau"})
    assert [f for f in found if not f.startswith("__init__.py:")] == []
