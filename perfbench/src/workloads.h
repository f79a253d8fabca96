// The benchmark's workloads (see README.md for why each exists). Each one
// builds its inputs from the run seed, times the program's own set-up,
// measures for the requested seconds, verifies every output bitwise, and
// fills an Output. With a Tracer (traced runs) it also records spans,
// interleaves traced and untraced operations for the tracing-overhead
// figure, and runs the kernel replay legs.
#pragma once

#include "common.h"
#include "trace.h"

namespace perfbench {

/// In-process gbdt::Trainer on the fraud schema at 1 thread (plus a
/// report-only nproc-thread leg).
void run_train_fraud(const Options& opt, Tracer* tracer, Output* out);
/// gbdt::DistributedTrainer over two rank threads on localhost TCP.
void run_train_tcp(const Options& opt, Tracer* tracer, Output* out);
/// Closed-loop /predict bursts, then an open-loop ladder, against a static
/// IoT model.
void run_serve_iot(const Options& opt, Tracer* tracer, Output* out);
/// Closed-loop /predict bursts while a stream::Retrainer hot-swaps models.
void run_serve_refresh(const Options& opt, Tracer* tracer, Output* out);

/// Adds trace.overhead_pct: traced-minus-untraced median, as a percentage
/// of the untraced median, over operations interleaved in one run.
void add_trace_overhead(const std::vector<double>& untraced,
                        const std::vector<double>& traced, Output* out);

}  // namespace perfbench
