"""Exact calculus of closed convex upper sets over a polyhedral ordering cone.

The package provides the complete-lattice operations on upper sets, the
Aumann integral of simple set-valued functions on finite atomic measure
spaces, and a conformance checker that decides whether a black-box set-valued
functional is an Aumann integral and reconstructs its measure.

Each public name below is imported from its module on first use, so that
``import uppersets`` loads no submodule and a program that needs a few
modules, such as an external functional's child, loads only those.  Nothing
is cached here: every access reads the module's current attribute.
Submodules themselves are imported explicitly (``import uppersets.axioms``).
"""

import importlib

_NAMES = {
    "axioms": "MUTANT_NAMES AxiomReport SampleSet SetFunctional decompose_nonneg extract_scalar"
    " integral_functional mutant_catalog reconstruct_measure run_axiom_checks verify_representation",
    "cone": "Cone DimensionMismatchError ValidationError dual_cone orthant",
    "integral": "ExplicitChain IntegralResult ParametricChain aumann_integral integral_over"
    " integral_value monotone_limit_check selection_oracle",
    "measure_space": "AtomicMeasure AtomicSpace ScalarFunction SimpleSetFunction VectorFunction"
    " cone_translates constant_function halfspace_function indicator_modify pick_selection"
    " preimage preimage_identity_check space vector_plus_cone",
    "upperset": "Halfspace UpperSet canonicalize cone_upper_set halfspace_set inf_set"
    " point_plus_cone sup_set",
    "workspace": "Workspace WorkspaceError parse_set_literal parse_workspace",
}
_MODULE = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_MODULE)


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("." + _MODULE[name], __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
