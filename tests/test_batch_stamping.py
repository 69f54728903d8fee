"""Summation-order parity of the batched engine's compiled stamps.

The batched engine assembles every system from compiled stamp programs
(:mod:`repro.spice.batch.program`), one ``np.bincount`` per stamp list.
These tests keep the element-by-element stamping the programs replaced as a
test-local reference — per-card ``np.add.at`` scatters for the DC and
transient MOSFET stamps, one fancy-index ``+=`` per stamp for the AC tensor
— and require ``np.array_equal`` against it (the AC tensor compared as
``uint64`` bits).  That pins the summation order on whatever machine runs
them, where a recorded fixture would pin one machine's ``np.exp`` rounding.
Iterates swap drain and source and put devices in cutoff; batches are one
design, a full chunk and a homotopy subset; the AC tensor is checked on
each circuit's AC and noise grids.  The last class checks that a design's
metrics do not depend on what else shares its batch.
"""

from __future__ import annotations

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.eval.base import EvalRequest
from repro.eval.vectorized import MAX_BATCH, VectorizedEvaluator
from repro.spice import Resistor
from repro.spice.ac import logspace_frequencies
from repro.spice.batch import ACSystem, BatchTemplate, batch_noise_analysis
from repro.spice.batch.dc import _DCAssembler
from repro.spice.batch.model import batch_dc_params, batch_small_signal_params
from repro.spice.batch.program import stack_columns, stamp_program
from repro.spice.batch.template import AC_GMIN, CAP_DC_LEAK
from repro.spice.batch.transient import TRANSIENT_GMIN, _mosfet_companions
from repro.spice.dc import DCSolution
from repro.spice.linalg import solve_stacked
from repro.spice.noise import _collect_noise_sources

NODES = ("180nm", "45nm")
PLAN_CIRCUITS = ("two_tia", "three_tia", "two_volt")


# --- the reference: element-by-element stamping ----------------------------------
def _padded(x):
    return np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)


def _card_groups(template):
    """Template MOSFETs grouped by model-card object, first use first."""
    by_card = {}
    for group in template.mosfets:
        by_card.setdefault(id(group.card), (group.card, []))[1].append(group)
    return list(by_card.values())


def _bias(card, groups, x):
    """Effective drain/source ``(K, G)``, gate and bulk ``(G,)`` and model bias."""
    drain, gate, source, bulk = (
        np.asarray([getattr(g, name) for g in groups])
        for name in ("drain", "gate", "source", "bulk")
    )
    p = card.polarity
    xg = _padded(x)
    vd, vs = xg[:, drain], xg[:, source]
    swap = p * (vd - vs) < 0.0
    nd = np.where(swap, source[None, :], drain[None, :])
    ns = np.where(swap, drain[None, :], source[None, :])
    vd_eff, vs_eff = np.where(swap, vs, vd), np.where(swap, vd, vs)
    vgs = p * (xg[:, gate] - vs_eff)
    vds = p * (vd_eff - vs_eff)
    vsb = np.maximum(p * (vs_eff - xg[:, bulk]), 0.0)
    return nd, ns, gate, bulk, vgs, vds, vsb


def stamp_conductance(matrix, n1, n2, g):
    if n1 >= 0:
        matrix[:, n1, n1] += g
    if n2 >= 0:
        matrix[:, n2, n2] += g
    if n1 >= 0 and n2 >= 0:
        matrix[:, n1, n2] -= g
        matrix[:, n2, n1] -= g


def reference_static(template, gmin, source_scale, dt=None):
    """The static Jacobian and source vector, one element at a time."""
    batch, n = template.batch_size, template.num_unknowns
    jacobian, sources = np.zeros((batch, n, n)), np.zeros((batch, n))
    for group in template.conductances:
        stamp_conductance(jacobian, group.n1, group.n2, group.g)
    for cap in template.capacitors:
        g = np.full(batch, CAP_DC_LEAK) if dt is None else cap.c / dt
        stamp_conductance(jacobian, cap.n1, cap.n2, g)
    for source in template.vsources:
        p, m, b = source.n_plus, source.n_minus, source.branch
        if p >= 0:
            jacobian[:, p, b] += 1.0
            jacobian[:, b, p] += 1.0
        if m >= 0:
            jacobian[:, m, b] -= 1.0
            jacobian[:, b, m] -= 1.0
        sources[:, b] -= source.dc * source_scale
    for source in template.isources:
        value = source.dc * source_scale
        if source.n_from >= 0:
            sources[:, source.n_from] += value
        if source.n_to >= 0:
            sources[:, source.n_to] -= value
    for e in template.vcvs:
        b = e.branch
        if e.out_plus >= 0:
            jacobian[:, e.out_plus, b] += 1.0
            jacobian[:, b, e.out_plus] += 1.0
        if e.out_minus >= 0:
            jacobian[:, e.out_minus, b] -= 1.0
            jacobian[:, b, e.out_minus] -= 1.0
        if e.in_plus >= 0:
            jacobian[:, b, e.in_plus] -= e.gain
        if e.in_minus >= 0:
            jacobian[:, b, e.in_minus] += e.gain
    if gmin > 0:
        nodes = np.arange(template.num_nodes)
        jacobian[:, nodes, nodes] += gmin
    return jacobian, sources


def reference_stamp_mosfets(template, jacobian, residual, x, rows):
    """Every MOSFET's DC stamps at ``x``, one ``np.add.at`` pair per model card."""
    count = x.shape[0]
    for card, groups in _card_groups(template):
        weff = np.stack([g.weff for g in groups], axis=1)[rows]
        length = np.stack([g.length for g in groups], axis=1)[rows]
        nd, ns, gate, _, vgs, vds, vsb = _bias(card, groups, x)
        ids, gm, gds, _, _ = batch_dc_params(card, weff, length, vgs, vds, vsb)
        i_drain = card.polarity * ids
        ng = np.broadcast_to(gate[None, :], nd.shape)
        bidx = np.broadcast_to(np.arange(count)[:, None], nd.shape)
        rows_ = np.concatenate([nd.ravel(), ns.ravel()])
        vals = np.concatenate([i_drain.ravel(), -i_drain.ravel()])
        bflat = np.concatenate([bidx.ravel(), bidx.ravel()])
        keep = rows_ >= 0
        np.add.at(residual, (bflat[keep], rows_[keep]), vals[keep])
        g_sum = gm + gds
        rows_ = np.concatenate([nd.ravel()] * 3 + [ns.ravel()] * 3)
        cols = np.concatenate([ng.ravel(), nd.ravel(), ns.ravel()] * 2)
        vals = np.concatenate(
            [gm.ravel(), gds.ravel(), -g_sum.ravel(), -gm.ravel(), -gds.ravel(), g_sum.ravel()]
        )
        bflat = np.concatenate([bidx.ravel()] * 6)
        keep = (rows_ >= 0) & (cols >= 0)
        np.add.at(jacobian, (bflat[keep], rows_[keep], cols[keep]), vals[keep])


def reference_companions(template, x_prev, dt):
    """Backward-Euler MOSFET capacitance conductances, one ``np.add.at`` per card."""
    batch, n = x_prev.shape
    companions = np.zeros((batch, n, n))
    for card, groups in _card_groups(template):
        weff = np.stack([g.weff for g in groups], axis=1)
        length = np.stack([g.length for g in groups], axis=1)
        nd, ns, gate, bulk, vgs, vds, vsb = _bias(card, groups, x_prev)
        params = batch_small_signal_params(card, weff, length, vgs, vds, vsb)
        ng = np.broadcast_to(gate[None, :], nd.shape)
        nb = np.broadcast_to(bulk[None, :], nd.shape)
        bidx = np.broadcast_to(np.arange(batch)[:, None], nd.shape).ravel()
        rows, cols, vals = [], [], []
        for n1, n2, cap in ((ng, ns, params.cgs), (ng, nd, params.cgd), (nd, nb, params.cdb)):
            geq = np.where(cap > 0, cap / dt, 0.0).ravel()
            a, b = n1.ravel(), n2.ravel()
            rows += [a, b, a, b]
            cols += [a, b, b, a]
            vals += [geq, geq, -geq, -geq]
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        keep = (rows >= 0) & (cols >= 0)
        bflat = np.tile(bidx, len(vals))
        np.add.at(companions, (bflat[keep], rows[keep], cols[keep]), np.concatenate(vals)[keep])
    return companions


def _scatter(tensor, rows, cols, values):
    """``tensor[b, :, rows[b], cols[b]] += values[b]``, skipping ground."""
    mask = (rows >= 0) & (cols >= 0)
    if mask.any():
        picked = values[mask]
        tensor[np.flatnonzero(mask), :, rows[mask], cols[mask]] += (
            picked[:, None] if picked.ndim == 1 else picked
        )


def _fixed(tensor, row, col, values):
    if row >= 0 and col >= 0:
        tensor[:, :, row, col] += values[:, None] if np.ndim(values) == 1 else values


def _fixed_conductance(tensor, n1, n2, values):
    _fixed(tensor, n1, n1, values)
    _fixed(tensor, n2, n2, values)
    _fixed(tensor, n1, n2, -values)
    _fixed(tensor, n2, n1, -values)


def reference_ac_tensor(template, ops, frequencies):
    """The AC tensor and source vector, one scatter per stamp."""
    batch, n = template.batch_size, template.num_unknowns
    omega = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
    tensor = np.zeros((batch, len(omega), n, n), dtype=complex)
    rhs = np.zeros((batch, n), dtype=complex)
    for group in template.conductances:
        _fixed_conductance(tensor, group.n1, group.n2, group.g)
    for group in template.capacitors:
        _fixed_conductance(tensor, group.n1, group.n2, 1j * omega[None, :] * group.c[:, None])
    ones = np.ones(batch)
    for source in template.vsources:
        p, m, b = source.n_plus, source.n_minus, source.branch
        for row, col, value in ((p, b, ones), (m, b, -ones), (b, p, ones), (b, m, -ones)):
            _fixed(tensor, row, col, value)
        rhs[:, b] += source.ac
    for source in template.isources:
        if source.n_from >= 0:
            rhs[:, source.n_from] -= source.ac
        if source.n_to >= 0:
            rhs[:, source.n_to] += source.ac
    for e in template.vcvs:
        b = e.branch
        for row, col, value in (
            (e.out_plus, b, ones),
            (e.out_minus, b, -ones),
            (b, e.out_plus, ones),
            (b, e.out_minus, -ones),
            (b, e.in_plus, -e.gain),
            (b, e.in_minus, e.gain),
        ):
            _fixed(tensor, row, col, value)
    for group in template.mosfets:
        device = [op.device_ops[group.name] for op in ops]
        dev = {
            key: np.asarray([getattr(d, key) for d in device])
            for key in ("gm", "gmb", "gds", "cgs", "cgd", "cdb")
        }
        nd, ns, ng, nb = (
            np.asarray([int(d.field_extra[key]) for d in device])
            for key in ("drain_index", "source_index", "gate_index", "bulk_index")
        )
        for out_p, out_n, in_p, in_n, value in (
            (nd, ns, ng, ns, dev["gm"]),
            (nd, ns, nb, ns, dev["gmb"]),
        ):
            _scatter(tensor, out_p, in_p, value)
            _scatter(tensor, out_p, in_n, -value)
            _scatter(tensor, out_n, in_p, -value)
            _scatter(tensor, out_n, in_n, value)
        for n1, n2, value in (
            (nd, ns, dev["gds"]),
            (ng, ns, 1j * omega[None, :] * dev["cgs"][:, None]),
            (ng, nd, 1j * omega[None, :] * dev["cgd"][:, None]),
            (nd, nb, 1j * omega[None, :] * dev["cdb"][:, None]),
        ):
            _scatter(tensor, n1, n1, value)
            _scatter(tensor, n2, n2, value)
            _scatter(tensor, n1, n2, -value)
            _scatter(tensor, n2, n1, -value)
    nodes = np.arange(template.num_nodes)
    tensor[:, :, nodes, nodes] += AC_GMIN
    return tensor, rhs


def reference_noise(circuits, ops, tensor, selector, freqs):
    """Per-design noise loop with one scalar PSD call per frequency."""
    batch, n = tensor.shape[0], tensor.shape[-1]
    adjoints = solve_stacked(
        np.swapaxes(tensor, -1, -2), np.broadcast_to(selector, (batch, len(freqs), n))
    )
    results = []
    for index, circuit in enumerate(circuits):
        total, contributions = np.zeros(len(freqs)), {}
        for source in _collect_noise_sources(circuit, ops[index]):
            za = adjoints[index][:, source.node_a] if source.node_a >= 0 else 0.0
            zb = adjoints[index][:, source.node_b] if source.node_b >= 0 else 0.0
            psd_values = np.asarray([source.psd(float(f)) for f in freqs], dtype=float)
            psd = np.abs(za - zb) ** 2 * psd_values
            contributions[source.name] = psd
            total += psd
        results.append((total, contributions))
    return results


# --- fixtures -------------------------------------------------------------------------
def chunk_circuits(name, node, size=MAX_BATCH, seed=0):
    """The expert design and random designs of ``name``, as a full chunk."""
    design = get_circuit(name, node)
    rng = np.random.default_rng(seed)
    sizings = [design.expert_sizing()] + [design.random_sizing(rng) for _ in range(size - 1)]
    if name == "ldo":
        return design, [c for s in sizings[: size // 2] for c in design.step_circuits(s)]
    return design, [design.build_circuit(s) for s in sizings]


def random_iterates(template, rng, count=None):
    """Iterates around the rails: they swap drain and source and cut devices off."""
    vdd = float(template.max_supply().max())
    count = template.batch_size if count is None else count
    return rng.uniform(-0.3, vdd + 0.3, size=(count, template.num_unknowns))


def operating_points(circuits, x):
    """DC solutions at arbitrary iterates, device ops from the scalar model."""
    solutions = []
    for circuit, row in zip(circuits, x):
        solution = DCSolution(circuit=circuit, x=row, converged=True, iterations=0)
        for mosfet in circuit.mosfets():
            solution.device_ops[mosfet.name] = mosfet.operating_point(row)
        solutions.append(solution)
    return solutions


def assert_swaps_and_cutoff(circuits, x):
    swapped = cutoff = 0
    for circuit, row in zip(circuits, x):
        for mosfet in circuit.mosfets():
            op = mosfet.operating_point(row)
            swapped += op.field_extra["drain_index"] != mosfet.nodes[0]
            cutoff += op.region == "cutoff"
    assert swapped and cutoff


def assert_bits_equal(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(
        np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(expected).view(np.uint64)
    )


def subsets(template, rng):
    """``(template, rows)`` cases: one design, the full chunk, a homotopy subset."""
    single = BatchTemplate(template.circuits[:1])
    rows = np.sort(rng.choice(template.batch_size, template.batch_size // 3, replace=False))
    return ((single, None), (template, None), (template, rows))


# --- tests ----------------------------------------------------------------------------
@pytest.mark.parametrize("node", NODES)
@pytest.mark.parametrize("name", PLAN_CIRCUITS)
class TestDCStamps:
    def test_fused_pass_matches_per_card_scatter(self, name, node):
        _, circuits = chunk_circuits(name, node)
        template = BatchTemplate(circuits)
        rng = np.random.default_rng(3)
        for (base, rows), (gmin, scale) in zip(
            subsets(template, rng), ((1e-12, 1.0), (1e-12, 1.0), (1e-3, 0.25))
        ):
            sub = base if rows is None else base.subset(rows)
            x = random_iterates(sub, rng)
            system = _DCAssembler(base).system(rows, gmin, scale)
            # Every row, then every other row (converged rows drop out).
            for active in (np.arange(sub.batch_size), np.arange(sub.batch_size)[::2]):
                jacobian, residual = system.assemble(x[active], active)
                j_ref, b_ref = reference_static(sub, gmin, scale)
                j_ref = j_ref[active]
                r_ref = np.matmul(j_ref, x[active][:, :, None])[:, :, 0] + b_ref[active]
                reference_stamp_mosfets(sub, j_ref, r_ref, x[active], active)
                assert np.array_equal(jacobian, j_ref)
                assert np.array_equal(residual, r_ref)
        assert_swaps_and_cutoff(sub.circuits, x)


@pytest.mark.parametrize("node", NODES)
@pytest.mark.parametrize("name", PLAN_CIRCUITS + ("ldo",))
class TestTransientStamps:
    def test_companions_and_newton_pass_match_per_card_scatter(self, name, node):
        design, circuits = chunk_circuits(name, node, size=16 if name == "ldo" else MAX_BATCH)
        dt = getattr(design, "TRAN_STEP", 1e-9)
        template = BatchTemplate(circuits)
        rng = np.random.default_rng(5)
        for base, rows in subsets(template, rng):
            sub = base if rows is None else base.subset(rows)
            batch, n = sub.batch_size, sub.num_unknowns
            assembler = _DCAssembler(sub, dt=dt)
            x_prev = random_iterates(sub, rng)
            companions = reference_companions(sub, x_prev, dt)
            assert np.array_equal(_mosfet_companions(assembler, x_prev, dt), companions)
            j_ref, _ = reference_static(sub, TRANSIENT_GMIN, 0.0, dt=dt)
            assert np.array_equal(assembler.jacobian(np.arange(batch), TRANSIENT_GMIN), j_ref)
            linear = np.zeros((batch, n, n))
            for cap in sub.capacitors:
                stamp_conductance(linear, cap.n1, cap.n2, cap.c / dt)
            caps = stack_columns([cap.c / dt for cap in sub.capacitors], batch)
            assert np.array_equal(
                assembler.program.capacitors.sums(caps).reshape(batch, n, n), linear
            )
            # One Newton iteration of a step, seeded like the transient loop.
            active = np.arange(batch)[::2]
            x = random_iterates(sub, rng)[active]
            step_jacobian = (j_ref + companions)[active]
            rhs = rng.normal(size=(len(active), n))
            residual = np.matmul(step_jacobian, x[:, :, None])[:, :, 0] + rhs
            got = assembler.stamp(
                step_jacobian, residual, x, assembler.weff[active], assembler.length[active]
            )
            reference_stamp_mosfets(sub, step_jacobian, residual, x, active)
            assert np.array_equal(got[0], step_jacobian)
            assert np.array_equal(got[1], residual)
        assert_swaps_and_cutoff(sub.circuits, x_prev)


@pytest.mark.parametrize("node", NODES)
@pytest.mark.parametrize("name", PLAN_CIRCUITS)
class TestACStamps:
    def test_compiled_tensor_matches_per_stamp_scatter(self, name, node):
        design, circuits = chunk_circuits(name, node)
        plan = design.analysis_plan()
        grids = [plan.ac_frequencies, logspace_frequencies()]
        if plan.noise_frequencies is not None:
            grids.append(plan.noise_frequencies)
        template = BatchTemplate(circuits)
        rng = np.random.default_rng(9)
        x = random_iterates(template, rng)
        ops = operating_points(circuits, x)
        for base, rows in subsets(template, rng):
            sub = base if rows is None else base.subset(rows)
            sub_ops = ops[: sub.batch_size] if rows is None else [ops[i] for i in rows]
            system = ACSystem(sub, sub_ops)
            for grid in grids:
                tensor, rhs = reference_ac_tensor(sub, sub_ops, grid)
                assert_bits_equal(system.tensor(grid), tensor)
            assert_bits_equal(system.rhs, rhs)
        assert_swaps_and_cutoff(circuits, x)

@pytest.mark.parametrize("node", NODES)
@pytest.mark.parametrize("name", ("two_tia", "two_volt"))
def test_noise_matches_per_design_loop(name, node):
    design, circuits = chunk_circuits(name, node, size=9)
    plan = design.analysis_plan()
    freqs = np.asarray(plan.noise_frequencies, dtype=float)
    x = random_iterates(BatchTemplate(circuits), np.random.default_rng(4))
    ops = operating_points(circuits, x)
    got = batch_noise_analysis(
        circuits, ops, plan.noise_output, freqs, output_node_neg=plan.noise_output_neg
    )
    reference = circuits[0]
    selector = np.zeros(reference.num_unknowns, dtype=complex)
    selector[reference.node(plan.noise_output)] = 1.0
    if plan.noise_output_neg:
        selector[reference.node(plan.noise_output_neg)] = -1.0
    tensor, _ = reference_ac_tensor(BatchTemplate(circuits), ops, freqs)
    for solution, (total, contributions) in zip(
        got, reference_noise(circuits, ops, tensor, selector, freqs)
    ):
        assert np.array_equal(solution.output_psd, total)
        assert solution.contributions.keys() == contributions.keys()
        for key, value in contributions.items():
            assert np.array_equal(solution.contributions[key], value)


class TestStampProgramCache:
    def test_one_program_per_topology_and_cards(self):
        programs = {}
        for name in PLAN_CIRCUITS:
            for node in NODES:
                design, circuits = chunk_circuits(name, node, size=3, seed=1)
                first = stamp_program(BatchTemplate(circuits))
                again = stamp_program(BatchTemplate([design.build_circuit(design.expert_sizing())]))
                assert first is again
                programs[name, node] = first
        # Same structure at another node: other model cards, another program.
        assert len({id(program) for program in programs.values()}) == len(programs)

    def test_cache_holds_no_circuit_and_compiles_once_under_threads(self):
        """Threads racing on new topologies all get one program per topology."""
        design = get_circuit("two_volt", "45nm")

        def topologies():
            """Topologies no other test compiles: extra resistors on two_volt."""
            circuits = []
            for extra in range(6):
                circuit = design.build_circuit(design.expert_sizing())
                for k in range(extra + 1):
                    circuit.add(Resistor(f"Rcache{k}", "vout", "0", 1e6))
                circuits.append(circuit)
            return circuits

        # Each thread builds from its own circuits, as concurrent evaluations do.
        circuits = [topologies() for _ in range(8)]
        results = [[] for _ in circuits[0]]

        def worker(own):
            for circuit, found in zip(own, results):
                found.append(stamp_program(BatchTemplate([circuit])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(own,)) for own in circuits]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for found in results:
            assert len(found) == 8 and all(program is found[0] for program in found)
        assert len({id(found[0]) for found in results}) == len(results)
        assert not results[0][0].dc_devices.target.flags.writeable
        alive = [weakref.ref(circuit) for own in circuits for circuit in own]
        del circuits, threads
        gc.collect()
        assert all(ref() is None for ref in alive)


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (math.isnan(a[k]) and math.isnan(b[k])) for k in a
    )


class TestBatchComposition:
    """A design's metrics are ``==`` however its batch is composed."""

    DESIGNS = 24

    def test_metrics_do_not_depend_on_the_batch(self):
        requests = []
        for name in PLAN_CIRCUITS:
            for node in NODES:
                design = get_circuit(name, node)
                rng = np.random.default_rng(21)
                sizings = [design.random_sizing(rng) for _ in range(self.DESIGNS)]
                evaluator = VectorizedEvaluator(design)
                chunk = [r.metrics for r in evaluator.evaluate_batch(sizings)]
                alone = [evaluator.evaluate_batch([s])[0].metrics for s in sizings]
                sub = [r.metrics for r in evaluator.evaluate_batch(sizings[5:12])]
                for index in range(self.DESIGNS):
                    assert _same(alone[index], chunk[index]), (name, node, index)
                for offset, metrics in enumerate(sub):
                    assert _same(metrics, chunk[5 + offset]), (name, node, 5 + offset)
                requests += [(EvalRequest(name, node, s), m) for s, m in zip(sizings, chunk)]
        # Interleave the circuits and nodes into one mixed batch.
        order = np.random.default_rng(0).permutation(len(requests))
        mixed = VectorizedEvaluator().evaluate_requests([requests[i][0] for i in order])
        for position, result in zip(order, mixed):
            assert _same(result.metrics, requests[position][1])
