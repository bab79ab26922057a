#include "serve/daemon/protocol.hpp"

#include <sstream>

#include "core/error.hpp"

namespace hpnn::serve {
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

std::uint64_t parse_u64(const std::string& token, const char* field) {
  try {
    std::size_t pos = 0;
    const std::uint64_t value = std::stoull(token, &pos);
    // stoull wraps a leading '-' to a huge value instead of failing.
    if (pos != token.size() || token.find('-') != std::string::npos) {
      throw Error("");
    }
    return value;
  } catch (const std::exception&) {
    throw Error(std::string("malformed ") + field + ": '" + token + "'");
  }
}

double parse_double(const std::string& token, const char* field) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(token, &pos);
    if (pos != token.size()) {
      throw Error("");
    }
    return value;
  } catch (const std::exception&) {
    throw Error(std::string("malformed ") + field + ": '" + token + "'");
  }
}

}  // namespace

ProtoRequest parse_request(const std::string& line) {
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty()) {
    throw Error("empty protocol line");
  }
  ProtoRequest request;
  const std::string& verb = tokens[0];
  if (verb == "INFER") {
    if (tokens.size() != 5) {
      throw Error("INFER expects: INFER <tenant> <id> <seed> <n>");
    }
    request.kind = ProtoRequest::Kind::kInfer;
    request.tenant = tokens[1];
    request.id = parse_u64(tokens[2], "id");
    request.seed = parse_u64(tokens[3], "seed");
    request.n = static_cast<std::int64_t>(parse_u64(tokens[4], "n"));
    if (request.n < 1) {
      throw Error("INFER needs n >= 1");
    }
    return request;
  }
  if (verb == "STATS") {
    request.kind = ProtoRequest::Kind::kStats;
    return request;
  }
  if (verb == "RELOAD") {
    request.kind = ProtoRequest::Kind::kReload;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      const std::size_t eq = tokens[i].find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= tokens[i].size()) {
        throw Error("RELOAD options must be key=value, got '" + tokens[i] +
                    "'");
      }
      request.options.emplace_back(tokens[i].substr(0, eq),
                                   tokens[i].substr(eq + 1));
    }
    return request;
  }
  if (verb == "DRAIN") {
    request.kind = ProtoRequest::Kind::kDrain;
    return request;
  }
  if (verb == "QUIT") {
    request.kind = ProtoRequest::Kind::kQuit;
    return request;
  }
  throw Error("unknown protocol verb '" + verb + "'");
}

DaemonConfig apply_reload(const ProtoRequest& request, DaemonConfig config) {
  for (const auto& [key, value] : request.options) {
    const char* field = key.c_str();
    if (key == "slo-us") {
      config.batcher.slo_p99_us = parse_u64(value, field);
    } else if (key == "max-batch") {
      config.batcher.max_batch_rows =
          static_cast<std::int64_t>(parse_u64(value, field));
    } else if (key == "queue-capacity") {
      config.queue.capacity = parse_u64(value, field);
    } else if (key == "high-watermark") {
      config.admission.high_watermark = parse_u64(value, field);
    } else if (key == "low-watermark") {
      config.admission.low_watermark = parse_u64(value, field);
    } else if (key == "tenant-qps") {
      config.admission.per_tenant.tokens_per_sec = parse_double(value, field);
    } else if (key == "tenant-burst") {
      config.admission.per_tenant.burst = parse_double(value, field);
    } else if (key == "session-capacity") {
      config.sessions.capacity = parse_u64(value, field);
    } else {
      throw Error("unknown reload option '" + key + "'");
    }
  }
  return config;
}

std::string format_reply(std::uint64_t id, const Reply& reply) {
  std::ostringstream os;
  os << "OK " << id << " classes=";
  for (std::size_t i = 0; i < reply.classes.size(); ++i) {
    os << (i == 0 ? "" : ",") << reply.classes[i];
  }
  os << " replica=" << reply.replica << " attempts=" << reply.attempts
     << " queue_wait_us=" << reply.queue_wait_us
     << " latency_us=" << reply.latency_us << " batch=" << reply.batch_id
     << "/" << reply.batch_rows << " degraded=" << (reply.degraded ? 1 : 0)
     << " session=" << reply.session_fingerprint.substr(0, 12);
  return os.str();
}

std::string format_error(std::uint64_t id, const std::string& kind,
                         std::uint64_t retry_after_us,
                         const std::string& message) {
  std::ostringstream os;
  os << "ERR " << id << " " << kind << " retry_after_us=" << retry_after_us
     << " " << message;
  return os.str();
}

std::string format_stats(const DaemonStats& stats) {
  std::ostringstream os;
  os << "STATS depth=" << stats.queue_depth
     << " submitted=" << stats.submitted << " completed=" << stats.completed
     << " failed=" << stats.failed << " expired=" << stats.expired
     << " batches=" << stats.batches
     << " admitted=" << stats.admission.admitted
     << " shed_watermark=" << stats.admission.shed_watermark
     << " shed_rate=" << stats.admission.shed_rate
     << " session_hits=" << stats.sessions.hits
     << " session_misses=" << stats.sessions.misses
     << " session_revocations=" << stats.sessions.revocations;
  return os.str();
}

std::string format_exception(std::uint64_t id, std::exception_ptr error) {
  try {
    std::rethrow_exception(std::move(error));
  } catch (const AdmissionRejectedError& e) {
    return format_error(id, "admission_rejected", e.retry_after_us(),
                        e.what());
  } catch (const QueueFullError& e) {
    return format_error(id, "queue_full", 0, e.what());
  } catch (const TimeoutError& e) {
    return format_error(id, "timeout", 0, e.what());
  } catch (const DeviceUnavailableError& e) {
    return format_error(id, "unavailable", e.retry_after_us(), e.what());
  } catch (const RetryExhaustedError& e) {
    return format_error(id, "retry_exhausted", 0, e.what());
  } catch (const Error& e) {
    return format_error(id, "error", 0, e.what());
  } catch (const std::exception& e) {
    return format_error(id, "error", 0, e.what());
  }
}

}  // namespace hpnn::serve
