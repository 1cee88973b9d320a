// Instrumentation entry points: the CULDA_OBS_* macros.
//
// Library code records through these macros, never through the registry
// directly, for two reasons:
//
//   1. Hot-path cost. Each macro caches its metric handle in a
//      function-local static, so the registry mutex is paid once per call
//      site per process; steady state is one relaxed enabled-check plus a
//      few relaxed atomic ops. When collection is disabled (the default),
//      only the enabled-check remains.
//   2. Compile-away. Building with -DCULDA_OBS_OFF (CMake: -DCULDA_OBS=OFF)
//      expands every macro to nothing — instrumented code paths carry
//      literally zero observability cost, clock reads included. The obs
//      library itself still builds; only the call sites vanish.
//
// All instrumentation is observation-only by contract: macros may read
// clocks and bump atomics but must never influence a numeric result.
// tests/test_obs.cpp pins this with bit-identity tests (train + infer with
// collection on vs. off produce identical bytes).
#pragma once

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#ifndef CULDA_OBS_OFF

#define CULDA_OBS_CAT2(a, b) a##b
#define CULDA_OBS_CAT(a, b) CULDA_OBS_CAT2(a, b)

/// True when runtime metric collection is on (constant false when compiled
/// out); for guarding setup an individual macro can't express.
#define CULDA_OBS_ENABLED() (::culda::obs::MetricsEnabled())

/// Adds `delta` to counter `name`. `name` must be a stable expression — it
/// is evaluated once per call site (static handle caching).
#define CULDA_OBS_COUNT(name, delta)                          \
  do {                                                        \
    if (::culda::obs::MetricsEnabled()) {                     \
      static ::culda::obs::Counter& culda_obs_counter_ =      \
          ::culda::obs::Metrics().GetCounter(name);           \
      culda_obs_counter_.Add(                                 \
          static_cast<uint64_t>(delta));                      \
    }                                                         \
  } while (0)

/// Sets gauge `name` to `value` (double).
#define CULDA_OBS_GAUGE_SET(name, value)                      \
  do {                                                        \
    if (::culda::obs::MetricsEnabled()) {                     \
      static ::culda::obs::Gauge& culda_obs_gauge_ =          \
          ::culda::obs::Metrics().GetGauge(name);             \
      culda_obs_gauge_.Set(static_cast<double>(value));       \
    }                                                         \
  } while (0)

/// Records `seconds` into histogram `name`.
#define CULDA_OBS_HIST(name, seconds)                         \
  do {                                                        \
    if (::culda::obs::MetricsEnabled()) {                     \
      static ::culda::obs::Histogram& culda_obs_hist_ =       \
          ::culda::obs::Metrics().GetHistogram(name);         \
      culda_obs_hist_.Record(                                 \
          static_cast<double>(seconds));                      \
    }                                                         \
  } while (0)

/// Times the enclosing scope into histogram `name` (RAII; records on scope
/// exit, exceptions included). Statement context only.
#define CULDA_OBS_TIMED(name)                                          \
  static ::culda::obs::Histogram& CULDA_OBS_CAT(culda_obs_timed_hist_, \
                                                __LINE__) =            \
      ::culda::obs::Metrics().GetHistogram(name);                      \
  ::culda::obs::ScopedHistTimer CULDA_OBS_CAT(culda_obs_timed_,        \
                                              __LINE__)(               \
      CULDA_OBS_CAT(culda_obs_timed_hist_, __LINE__))

/// Traces the enclosing scope as a host span named `name` (any string
/// expression, dynamic names allowed). Statement context only.
#define CULDA_OBS_SPAN(name) \
  ::culda::obs::ScopedSpan CULDA_OBS_CAT(culda_obs_span_, __LINE__)(name)

/// CULDA_OBS_SPAN with the span object named `var`, so the scope can attach
/// numeric args to it with CULDA_OBS_SPAN_ARG before it closes.
#define CULDA_OBS_NAMED_SPAN(var, name) ::culda::obs::ScopedSpan var(name)
/// Attaches `key = value` (an unsigned count) to the named span `var`; it
/// shows in the span's Chrome-trace "args". No-op when tracing is off.
#define CULDA_OBS_SPAN_ARG(var, key, value) (var).AddArg((key), (value))

// -- labeled variants ---------------------------------------------------
// Same handle-caching story, one series per call site: because the handle
// is resolved once into a function-local static, `key` and `value` must be
// call-site-stable expressions (string literals in practice). Dynamic
// label values go through Metrics().GetCounter(name, key, value) directly,
// outside any hot loop.

/// Adds `delta` to the labeled counter `name{key=value}`.
#define CULDA_OBS_COUNT_L(name, key, value, delta)             \
  do {                                                         \
    if (::culda::obs::MetricsEnabled()) {                      \
      static ::culda::obs::Counter& culda_obs_counter_ =       \
          ::culda::obs::Metrics().GetCounter(name, key,        \
                                             value);           \
      culda_obs_counter_.Add(                                  \
          static_cast<uint64_t>(delta));                       \
    }                                                          \
  } while (0)

/// Records `seconds` into the labeled histogram `name{key=value}`.
#define CULDA_OBS_HIST_L(name, key, value, seconds)            \
  do {                                                         \
    if (::culda::obs::MetricsEnabled()) {                      \
      static ::culda::obs::Histogram& culda_obs_hist_ =        \
          ::culda::obs::Metrics().GetHistogram(name, key,      \
                                               value);         \
      culda_obs_hist_.Record(                                  \
          static_cast<double>(seconds));                       \
    }                                                          \
  } while (0)

/// Times the enclosing scope into the labeled histogram `name{key=value}`
/// (RAII). Statement context only.
#define CULDA_OBS_TIMED_L(name, key, value)                             \
  static ::culda::obs::Histogram& CULDA_OBS_CAT(culda_obs_timed_hist_, \
                                                __LINE__) =            \
      ::culda::obs::Metrics().GetHistogram(name, key, value);          \
  ::culda::obs::ScopedHistTimer CULDA_OBS_CAT(culda_obs_timed_,        \
                                              __LINE__)(               \
      CULDA_OBS_CAT(culda_obs_timed_hist_, __LINE__))

/// Records a point event named `name` into the flight recorder (heartbeat
/// sites: "the process was alive and here"). The name id is cached per
/// call site, so steady state is one relaxed check plus a lock-free ring
/// write; a disabled recorder costs the check alone.
#define CULDA_OBS_EVENT(name)                                  \
  do {                                                         \
    if (::culda::obs::Flight().enabled()) {                    \
      static const uint32_t culda_obs_event_id_ =              \
          ::culda::obs::Flight().Intern(name);                 \
      ::culda::obs::Flight().Record(culda_obs_event_id_);      \
    }                                                          \
  } while (0)

#else  // CULDA_OBS_OFF: every macro body vanishes. The sizeof tricks keep
       // arguments "used" (no -Wunused warnings) without evaluating them.

#define CULDA_OBS_ENABLED() (false)
#define CULDA_OBS_COUNT(name, delta) \
  do {                               \
    (void)sizeof((name));            \
    (void)sizeof((delta));           \
  } while (0)
#define CULDA_OBS_GAUGE_SET(name, value) \
  do {                                   \
    (void)sizeof((name));                \
    (void)sizeof((value));               \
  } while (0)
#define CULDA_OBS_HIST(name, seconds) \
  do {                                \
    (void)sizeof((name));             \
    (void)sizeof((seconds));          \
  } while (0)
#define CULDA_OBS_TIMED(name) \
  do {                        \
    (void)sizeof((name));     \
  } while (0)
#define CULDA_OBS_SPAN(name) \
  do {                       \
    (void)sizeof((name));    \
  } while (0)
#define CULDA_OBS_NAMED_SPAN(var, name) \
  do {                                  \
    (void)sizeof((name));               \
  } while (0)
#define CULDA_OBS_SPAN_ARG(var, key, value) \
  do {                                      \
    (void)sizeof((key));                    \
    (void)sizeof((value));                  \
  } while (0)
#define CULDA_OBS_COUNT_L(name, key, value, delta) \
  do {                                             \
    (void)sizeof((name));                          \
    (void)sizeof((key));                           \
    (void)sizeof((value));                         \
    (void)sizeof((delta));                         \
  } while (0)
#define CULDA_OBS_HIST_L(name, key, value, seconds) \
  do {                                              \
    (void)sizeof((name));                           \
    (void)sizeof((key));                            \
    (void)sizeof((value));                          \
    (void)sizeof((seconds));                        \
  } while (0)
#define CULDA_OBS_TIMED_L(name, key, value) \
  do {                                      \
    (void)sizeof((name));                   \
    (void)sizeof((key));                    \
    (void)sizeof((value));                  \
  } while (0)
#define CULDA_OBS_EVENT(name) \
  do {                        \
    (void)sizeof((name));     \
  } while (0)

#endif  // CULDA_OBS_OFF
