// Text line protocol for `hpnn serve`: one request per line in, one
// response line out. Inputs are generated server-side from a seed (the
// devices consume locked activations, so clients exchanging raw tensors
// would add marshalling without exercising anything new):
//
//   INFER <tenant> <id> <seed> <n>   -> OK <id> classes=3,1 replica=0 ...
//                                    |  ERR <id> <kind> retry_after_us=..
//   STATS                            -> STATS depth=.. completed=.. ...
//   RELOAD key=value ...             -> OK reload
//   DRAIN                            -> OK drained
//   QUIT                             -> OK bye
//
// The codec is pure string <-> struct (no I/O, no daemon reference), so it
// unit-tests without a transport and both the stdin loop and --script files
// share one parser.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/daemon/daemon.hpp"

namespace hpnn::serve {

struct ProtoRequest {
  enum class Kind { kInfer, kStats, kReload, kDrain, kQuit };
  Kind kind = Kind::kInfer;
  // kInfer fields:
  std::string tenant;
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  std::int64_t n = 1;
  // kReload fields:
  std::vector<std::pair<std::string, std::string>> options;
};

/// Parses one protocol line. Throws Error on malformed input (unknown verb,
/// missing fields, non-numeric numbers). Callers skip blank lines and
/// '#' comments before parsing; empty input throws.
ProtoRequest parse_request(const std::string& line);

/// Returns `config` with a RELOAD line's key=value options applied:
/// slo-us, max-batch, queue-capacity, high-watermark, low-watermark,
/// tenant-qps, tenant-burst, session-capacity. Throws Error on an unknown
/// key ("unknown reload option") or a malformed value.
DaemonConfig apply_reload(const ProtoRequest& request, DaemonConfig config);

/// OK line for a completed inference.
std::string format_reply(std::uint64_t id, const Reply& reply);

/// ERR line. `kind` is a short stable token ("admission_rejected",
/// "queue_full", "timeout", "unavailable", "retry_exhausted", "error");
/// retry_after_us is 0 when the failure carries no hint.
std::string format_error(std::uint64_t id, const std::string& kind,
                         std::uint64_t retry_after_us,
                         const std::string& message);

/// STATS line from a daemon snapshot.
std::string format_stats(const DaemonStats& stats);

/// Maps a caught serving exception to its ERR line. Rethrows nothing;
/// returns the formatted line.
std::string format_exception(std::uint64_t id, std::exception_ptr error);

}  // namespace hpnn::serve
