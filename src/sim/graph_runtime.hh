/**
 * @file
 * sim::GraphRuntime, the former name of the single-chip executor,
 * kept for the benchmark/ sources only. New code constructs
 * sim::PipelineRuntime(graph, layers, RuntimeConfig) directly.
 */

#ifndef FORMS_SIM_GRAPH_RUNTIME_HH
#define FORMS_SIM_GRAPH_RUNTIME_HH

#include "sim/pipeline_runtime.hh"

namespace forms::sim {

/** For benchmark/ only: the single-chip sim::PipelineRuntime. */
using GraphRuntime = PipelineRuntime;

} // namespace forms::sim

#endif // FORMS_SIM_GRAPH_RUNTIME_HH
