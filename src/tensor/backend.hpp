// Tensor-layer access point for the compute-backend registry.
//
// The built-in tiers live in this library (tensor/backends/), so the core
// registry cannot self-populate: linking core alone gives an empty
// registry, and static initializers in a static library would be
// dead-stripped. Instead every kernel-layer call site fetches the active
// backend through ops::backend(), which registers whatever tiers were
// compiled into this binary exactly once before delegating to
// core::active_compute_backend().
#pragma once

#include <string>
#include <vector>

#include "core/compute_backend.hpp"

namespace hpnn::ops {

/// Registers the built-in backends (first call only) and returns the
/// active one. Selection follows core::active_compute_backend(): explicit
/// set_backend() > HPNN_BACKEND env > auto-pick (a set HPNN_SIMD fails).
const core::ComputeBackend& backend();

/// Registers the built-ins (first call only), then switches the active
/// backend. Throws UsageError on unknown or unsupported names — never
/// falls back silently. Bumps the backend epoch, invalidating PackedA
/// panels and ScratchArena retained blocks.
void set_backend(const std::string& name);

/// Registers the built-ins (first call only), then lists every registered
/// backend name in registration order (scalar first).
std::vector<std::string> backend_names();

/// Registers the built-ins (first call only); find by name, nullptr when
/// unknown. For conformance tests that iterate specific tiers.
const core::ComputeBackend* find_backend(const std::string& name);

}  // namespace hpnn::ops
