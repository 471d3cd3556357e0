#pragma once

#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "memsim/request.hpp"
#include "memsim/source.hpp"

/// NVMain-style text traces.
///
/// The paper evaluates with "memory traces from the SPEC benchmark suite"
/// replayed through a modified NVMain 2.0. We support NVMain's simple
/// text format, one access per line (trailing fields — data payload,
/// thread id — are ignored, '#' starts a comment):
///
///     <cycle> <R|W> <hex address>
///
/// Cycles are converted to picoseconds with a configurable CPU clock
/// (NVMain traces are recorded in CPU cycles).
///
/// Diagnostics: every parse error is a std::runtime_error naming the
/// 1-based line number and the offending line text; records whose cycle
/// count goes backwards are rejected in the same style (mirroring
/// check_arrival_order), so a broken trace fails loudly at its
/// first bad line rather than deep inside a replay.
namespace comet::memsim {

struct TraceConfig {
  double cpu_clock_ghz = 2.0;     ///< Trace cycle -> time conversion.
  std::uint32_t line_bytes = 64;  ///< Request size attached to records.
};

/// Parses a trace stream into a materialized vector. Throws
/// std::runtime_error (see the diagnostics note above) on malformed
/// lines or non-monotonic cycle counts.
std::vector<Request> read_trace(std::istream& in, const TraceConfig& config);

/// Streaming trace reader: pulls one record per next() call — O(1)
/// memory however long the file — and enforces the sorted-by-arrival
/// contract incrementally as records are pulled, with the same
/// line-numbered diagnostics as read_trace. read_trace is implemented on
/// top of this class, so both paths accept exactly the same inputs.
class TraceFileSource final : public RequestSource {
 public:
  /// Opens `path`; throws std::runtime_error naming the path when the
  /// file cannot be opened.
  TraceFileSource(const std::string& path, const TraceConfig& config);

  /// Streams from a caller-owned stream (which must outlive the source);
  /// `name` labels diagnostics.
  TraceFileSource(std::istream& in, const TraceConfig& config,
                  std::string name = "trace");

  // in_ may point at owned_; default copy/move would leave it dangling
  // at the old object.
  TraceFileSource(const TraceFileSource&) = delete;
  TraceFileSource& operator=(const TraceFileSource&) = delete;

  std::optional<Request> next() override;

  /// Block form of next(): parses up to `max` records (the class is
  /// final, so the loop devirtualizes), same sequence and diagnostics.
  std::size_t next_batch(Request* out, std::size_t max) override;

  /// 1-based number of the last line consumed (0 before the first).
  std::uint64_t line_number() const { return line_no_; }

 private:
  std::ifstream owned_;
  std::istream* in_;
  TraceConfig config_;
  double ps_per_cycle_;
  std::string name_;
  std::uint64_t line_no_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t prev_cycle_ = 0;
};

/// Serializes a request stream to the text format (cycles re-derived
/// from arrival times with the same clock), draining the source.
void write_trace(std::ostream& out, RequestSource& source,
                 const TraceConfig& config);

/// Materialized-vector convenience overload.
void write_trace(std::ostream& out, const std::vector<Request>& requests,
                 const TraceConfig& config);

}  // namespace comet::memsim
