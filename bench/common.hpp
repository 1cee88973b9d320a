// Shared harness for the benchmark binaries.
//
// Every bench regenerates one table or figure of the paper (see DESIGN.md's
// experiment index): it builds the scaled dataset profiles, runs the
// relevant solvers, and prints the same rows/series the paper reports, plus
// the paper's own numbers for shape comparison. All flags are overridable so
// EXPERIMENTS.md runs are reproducible from the command line.
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "gpusim/device_spec.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace culda::bench {

/// Bench-scale dataset profiles. The paper's corpora are 99.5M (NYTimes) and
/// 737.9M (PubMed) tokens; the functional simulator runs on one CPU core, so
/// the default bench scale targets ~2M tokens while preserving each
/// dataset's *shape*: document-length distribution (θ sparsity → the
/// Figure 7 ramp) and Zipfian word skew. `--scale` multiplies the default.
corpus::SyntheticProfile NyTimesBenchProfile(double scale_mult = 1.0);
corpus::SyntheticProfile PubMedBenchProfile(double scale_mult = 1.0);

/// The `--scale` every bench defaults to (NYTimes: ~0.6M tokens). At 0.5
/// the NYTimes profile's heaviest word passes the 16-bit φ count cap; the
/// ctest Validate.BenchDefaultProfilesFitPhiCap keeps this default under it.
inline constexpr double kDefaultScale = 0.3;

/// Generates the corpus for a profile, honouring `--uci-<name>=<path>` to
/// substitute the real UCI dump when available. Exits 1 with the trainers'
/// own message (core::CheckTrainable) when a word passes the φ count cap.
corpus::Corpus MakeCorpus(const CliFlags& flags,
                          const corpus::SyntheticProfile& profile,
                          const std::string& flag_name);

/// K and hyper-parameters for benches: K=256 by default (scaled in
/// proportion to the scaled vocabularies; the paper uses K in [1k, 10k] on
/// the full corpora), α = 50/K, β = 0.01. Override with --topics.
core::CuldaConfig BenchConfig(const CliFlags& flags);

/// The paper's three GPU platforms (Table 2).
std::vector<gpusim::DeviceSpec> AllPlatforms();

/// Prints the standard bench banner: which paper artifact this regenerates
/// and the workload summary lines (Table 3 analogue).
void PrintBanner(const std::string& artifact, const std::string& detail);

/// Fails the process if unknown flags were passed (typo protection).
void RejectUnknownFlags(const CliFlags& flags);

/// Mean of `values[skip..]` — benches average steady-state iterations.
double MeanAfterWarmup(const std::vector<double>& values, size_t skip = 2);

}  // namespace culda::bench
