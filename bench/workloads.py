"""The benchmark's workloads: the quivers each one sets up and the
``qcluster`` command lines one run of it executes, all at p = 3 and with
``--jobs 1``."""

from __future__ import annotations

# quivers whose catalog models are built during set-up, per workload
QUIVERS = {
    "hall-sweep": ("a2", "a3", "kronecker"),
    "standard-monomials": ("a2", "a3", "kronecker"),
    "mutate-formal": ("kronecker",),
}

MUTATION_STEPS = 13


def steps(workload: str, seed: int) -> list[list[str]]:
    """The ``cli.main`` argument lists of one run.

    Only ``mutate-formal`` depends on the seed: its parity picks the
    direction the alternating Kronecker walk starts in.  The other two
    workloads are fixed statement sweeps.
    """
    if workload == "hall-sweep":
        cmds = [["verify", "thm3.3", "--all-pairs", "--json"],
                ["verify", "green", "--all-pairs", "--json"]]
    elif workload == "standard-monomials":
        cmds = [["verify", "prop4.5", "--json"],
                ["verify", "basis", "--quiver", "kronecker", "--json"]]
    elif workload == "mutate-formal":
        first = 1 + seed % 2
        seq = ",".join(str(1 + (first - 1 + i) % 2) for i in range(MUTATION_STEPS))
        cmds = [["mutate", "--quiver", "kronecker", "--seq", seq],
                ["verify", "lem5.4", "--json"]]
    else:
        raise KeyError("unknown workload %r (have %s)" % (workload, ", ".join(QUIVERS)))
    return [["--jobs", "1"] + cmd for cmd in cmds]


# per-layer metric -> the workload on which its layer does the work; the
# self-test requires each metric to be nonzero there
LOADED_ON = {
    "scalars.spec_mul.calls": "standard-monomials",
    "scalars.spec_mul.self_s": "standard-monomials",
    "scalars.qpow.calls": "standard-monomials",
    "scalars.qpow.self_s": "standard-monomials",
    "scalars.formal_mul.calls": "mutate-formal",
    "scalars.formal_mul.self_s": "mutate-formal",
    "scalars.exact_div.calls": "mutate-formal",
    "scalars.exact_div.self_s": "mutate-formal",
    "torus.mul.calls": "standard-monomials",
    "torus.mul.term_pairs": "standard-monomials",
    "torus.mul.self_s": "standard-monomials",
    "torus.div_right.calls": "mutate-formal",
    "torus.div_right.self_s": "mutate-formal",
    "torus.render.calls": "mutate-formal",
    "torus.render.self_s": "mutate-formal",
    "quiver.solve_lambda.calls": "hall-sweep",
    "quiver.solve_lambda.self_s": "hall-sweep",
    "modp.rref.calls": "hall-sweep",
    "modp.rref.self_s": "hall-sweep",
    "modp.budget.subspace_tuples": "hall-sweep",
    "modp.budget.matrix_tuples": "hall-sweep",
    "modp.budget.hom_elements": "hall-sweep",
    "rep.hom_basis.calls": "hall-sweep",
    "rep.hom_basis.self_s": "hall-sweep",
    "rep.iso_test.calls": "hall-sweep",
    "rep.iso_test.self_s": "hall-sweep",
    "rep.iso_test.hit_frac": "hall-sweep",
    "rep.submodules.calls": "hall-sweep",
    "rep.submodules.self_s": "hall-sweep",
    "rep.aut_count.calls": "hall-sweep",
    "rep.aut_count.self_s": "hall-sweep",
    "rep.is_indecomposable.calls": "hall-sweep",
    "rep.is_indecomposable.self_s": "hall-sweep",
    "rep.tau.calls": "standard-monomials",
    "rep.tau.self_s": "standard-monomials",
    "hall.iso_classes.calls": "hall-sweep",
    "hall.iso_classes.cold": "hall-sweep",
    "hall.iso_classes.classes": "hall-sweep",
    "hall.iso_classes.self_s": "hall-sweep",
    "hall.filtration_count.calls": "hall-sweep",
    "hall.filtration_count.self_s": "hall-sweep",
    "hall.ext_count.calls": "hall-sweep",
    "catalog.stores": "hall-sweep",
    "catalog.homogeneous_points.self_s": "standard-monomials",
    "catalog.find_rigid_module.calls": "standard-monomials",
    "catalog.find_rigid_module.self_s": "standard-monomials",
    "ccmap.cc_map.calls": "standard-monomials",
    "ccmap.cc_map.self_s": "standard-monomials",
    "ccmap.cc_map_formal.calls": "mutate-formal",
    "ccmap.cc_map_formal.self_s": "mutate-formal",
    "families.grassmannian_poly.calls": "mutate-formal",
    "families.grassmannian_poly.self_s": "mutate-formal",
    "seeds.standard_monomial.calls": "standard-monomials",
    "seeds.standard_monomial.self_s": "standard-monomials",
    "seeds.mutate.calls": "mutate-formal",
    "seeds.mutate.self_s": "mutate-formal",
    "harness.expand_in_standard_monomials.calls": "standard-monomials",
    "harness.expand_in_standard_monomials.self_s": "standard-monomials",
    "cli.main.self_s": "hall-sweep",
    "trace.overhead_frac": "standard-monomials",
    "layer.scalars.self_s": "standard-monomials",
    "layer.torus.self_s": "standard-monomials",
    "layer.quiver.self_s": "hall-sweep",
    "layer.modp.self_s": "hall-sweep",
    "layer.rep.self_s": "hall-sweep",
    "layer.hall.self_s": "hall-sweep",
    "layer.families.self_s": "mutate-formal",
    "layer.catalog.self_s": "standard-monomials",
    "layer.ccmap.self_s": "standard-monomials",
    "layer.seeds.self_s": "mutate-formal",
    "layer.harness.self_s": "standard-monomials",
    "layer.cli.self_s": "hall-sweep",
}
