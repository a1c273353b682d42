#pragma once

/// \file datareuse.h
/// Umbrella header for the datareuse library — the full data-reuse
/// exploration flow of "Data Reuse Exploration Techniques for
/// Loop-dominated Applications" (Van Achteren et al., DATE 2002).
///
/// Typical use:
///
///   #include "datareuse.h"
///
///   auto program = dr::frontend::compileKernelFile("kernel.krn");
///   auto result  = dr::explorer::exploreSignal(program, 0);
///   dr::explorer::designChains(program, result);  // Pareto table
///   std::cout << dr::report::signalReport(program, result);
///
/// Individual subsystem headers can be included directly for finer
/// control; see README.md for the architecture map.

#include "adopt/addr_expr.h"
#include "adopt/range.h"
#include "adopt/simplify.h"
#include "adopt/strength.h"
#include "analytic/curve.h"
#include "analytic/footprint.h"
#include "analytic/pair_analysis.h"
#include "analytic/partial.h"
#include "analytic/regions.h"
#include "analytic/reuse_vector.h"
#include "codegen/executor.h"
#include "codegen/optimized.h"
#include "codegen/templates.h"
#include "explorer/explorer.h"
#include "frontend/frontend.h"
#include "hierarchy/assign.h"
#include "hierarchy/chain.h"
#include "hierarchy/collapse.h"
#include "hierarchy/cost.h"
#include "hierarchy/enumerate.h"
#include "hierarchy/pareto.h"
#include "inplace/inplace.h"
#include "kernels/conv2d.h"
#include "kernels/matmul.h"
#include "kernels/motion_estimation.h"
#include "kernels/susan.h"
#include "kernels/wavelet.h"
#include "loopir/emit_source.h"
#include "loopir/normalize.h"
#include "loopir/permute.h"
#include "loopir/printer.h"
#include "loopir/program.h"
#include "loopir/validate.h"
#include "power/memory_model.h"
#include "report/ascii_plot.h"
#include "report/report.h"
#include "scbd/scbd.h"
#include "simcore/buffer_sim.h"
#include "simcore/chain_sim.h"
#include "simcore/lru_stack.h"
#include "simcore/reuse_curve.h"
#include "support/contracts.h"
#include "support/dataset.h"
#include "support/intmath.h"
#include "trace/address_map.h"
#include "trace/lifetime.h"
#include "trace/single_assign.h"
#include "trace/stats.h"
#include "trace/timeframe.h"
#include "trace/walker.h"
