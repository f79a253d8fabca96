// Kernel replay legs of the traced run. Each leg times one public function
// of a layer from outside the program, at the running workload's shapes
// and on its own data, model and captured request, and records a
// "replay.<metric>" span per timed batch. Every workload reports the same
// per-layer set, so a layer change can be read off on every workload --
// including the ones predicted not to move.
#pragma once

#include <string>

#include "common.h"
#include "gbdt/binning.h"
#include "gbdt/dataset.h"
#include "gbdt/trainer.h"
#include "trace.h"

namespace perfbench {

struct ReplayInput {
  /// The workload's binned training data (and the serving bin reference).
  const booster::gbdt::BinnedDataset* data = nullptr;
  /// A raw chunk of the same schema (stream.bin_chunk_us).
  const booster::gbdt::Dataset* chunk = nullptr;
  /// The workload's model (predict_many, serve.predict_us).
  const booster::gbdt::Model* model = nullptr;
  /// One captured /predict request (full HTTP bytes, CSV body).
  std::string request;
  /// Rows per predict_many batch for serve.predict_us (the workload's
  /// observed mean batch; the request's rows when nothing was served).
  double batch_rows = 1.0;
  /// Measured Binner::bin time of the workload's data.
  double bin_s = 0.0;
  /// The in-process reference training the workload verifies against.
  const booster::gbdt::TrainResult* reference = nullptr;
  double reference_train_s = 0.0;
};

/// Runs every replay leg and appends the per-layer metrics to `out`.
/// Aborts (via BOOSTER_CHECK) if a replayed kernel rejects its input.
void run_replays(const ReplayInput& in, Tracer* tracer, Output* out);

/// Times one frame over a decorated localhost TcpTransport pair: rank 1
/// sends `frame` to rank 0 and waits for a one-byte ack, `reps` times.
/// Returns false if the pair could not be assembled or a frame was lost.
bool tcp_round_trips(const std::vector<std::uint8_t>& frame, int reps,
                     Tracer* tracer, double* send_us, double* recv_wait_us);

}  // namespace perfbench
