"""Differential correctness of every pipeline variant's design.

Each ``PIPELINE_VARIANTS`` entry × {pw_advection, tracer_advection} is
compiled on the tiny test grid and its HLS module is run by the functional
dataflow simulator against the numpy reference kernels — once compiled
cold, and once restored from a warm disk cache, so the HLS modules the
cache hands back are value-checked too.
"""

import numpy as np
import pytest

from repro.core.compile_cache import CompileCache
from repro.core.pipeline import StencilHMLSCompiler
from repro.evaluation.harness import PIPELINE_VARIANTS
from repro.fpga.dataflow_sim import FunctionalDataflowSimulator
from repro.kernels.pw_advection import PW_OUTPUT_FIELDS
from repro.kernels.reference import pw_advection_reference, tracer_advection_reference
from repro.kernels.tracer_advection import TRACER_WORKSPACE_FIELDS


def _matches_reference(xclbin, kernel, data, shape) -> bool:
    arrays, small, scalars = data
    reference = {k: v.copy() for k, v in arrays.items()}
    simulated = {k: v.copy() for k, v in arrays.items()}
    simulated.update({k: v.copy() for k, v in small.items()})
    if kernel == "pw_advection":
        pw_advection_reference(reference, small, scalars, shape)
        fields = PW_OUTPUT_FIELDS
    else:
        tracer_advection_reference(reference, {}, scalars, shape)
        fields = TRACER_WORKSPACE_FIELDS
    FunctionalDataflowSimulator(xclbin.hls_module, xclbin.plan).run(simulated, dict(scalars))
    return all(np.allclose(simulated[name], reference[name]) for name in fields)


@pytest.mark.parametrize("phase", ["cold", "warm"])
def test_every_variant_design_matches_numpy(
    phase, tmp_path, small_shape, pw_module, tracer_module, pw_data, tracer_data
):
    kernels = {
        "pw_advection": (pw_module, pw_data),
        "tracer_advection": (tracer_module, tracer_data),
    }
    cache = None
    if phase == "warm":
        filler = CompileCache(tmp_path)
        for module, _ in kernels.values():
            for spec in PIPELINE_VARIANTS.values():
                StencilHMLSCompiler(pass_pipeline=spec, cache=filler).compile(module)
        cache = CompileCache(tmp_path)  # a fresh process: disk tier only

    mismatched = []
    for kernel, (module, data) in kernels.items():
        for variant, spec in PIPELINE_VARIANTS.items():
            xclbin = StencilHMLSCompiler(pass_pipeline=spec, cache=cache).compile(module)
            if not _matches_reference(xclbin, kernel, data, small_shape):
                mismatched.append(f"{kernel}@{variant}")

    assert mismatched == []
    if cache is not None:
        designs = len(kernels) * len(PIPELINE_VARIANTS)
        assert cache.stats.hits["middle-end"] == designs
        assert cache.stats.total_misses == 0
