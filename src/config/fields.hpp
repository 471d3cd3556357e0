#pragma once

#include <climits>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "config/experiment.hpp"
#include "config/serialize.hpp"
#include "util/names.hpp"

/// Field tables: one `Schema<S>::fields` row per TOML key of S (key,
/// member, range, unit). read_fields()/write_fields() walk the rows, so
/// a new knob is one member plus one row. Rules spanning several keys
/// stay in the section readers of serialize.cpp and experiment.cpp.
namespace comet::config {

/// The TOML literal of a value, with round-trip precision. Axes write a
/// lone value as a scalar; string lists are always arrays.
inline std::string format_value(bool v) { return v ? "true" : "false"; }
inline std::string format_value(double v) { return toml::format_float(v); }
inline std::string format_value(const std::string& v) {
  return toml::format_string(v);
}
template <typename T>
std::string format_value(const T& v) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {
    if (v.size() == 1 && !std::is_same_v<T, std::vector<std::string>>) {
      return format_value(v.front());
    }
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + format_value(v[i]);
    }
    return out + "]";
  }
}

/// A numeric member and its document range; the member holds the
/// document value times `scale`.
template <typename S, typename T>
struct Ranged {
  T S::*member;
  T min, max, scale = 1;

  void read(TableReader& reader, const char* key, S& out) const {
    if (const auto v = reader.get_number(key, min, max)) {
      out.*member = T(*v * scale);
    }
  }
  std::string format(const S& s) const {
    return format_value(T(s.*member / scale));
  }
};
template <typename S, typename T, typename B1, typename B2, typename... B3>
Ranged(T S::*, B1, B2, B3...) -> Ranged<S, T>;

/// A sweep axis: a scalar or an array, every element range-checked.
template <typename S, typename E>
struct Axis {
  std::vector<E> S::*member;
  E min, max;

  void read(TableReader& reader, const char* key, S& out) const {
    if (const auto v = reader.get_u64_list(key, min, max)) {
      out.*member = std::vector<E>(v->begin(), v->end());
    }
  }
  std::string format(const S& s) const { return format_value(s.*member); }
};
template <typename S, typename E, typename B1, typename B2>
Axis(std::vector<E> S::*, B1, B2) -> Axis<S, E>;

/// A bool, string or string-list member (rows name the member alone).
template <typename S, typename T>
struct Plain {
  constexpr Plain(T S::*m) : member(m) {}
  T S::*member;

  void read(TableReader& reader, const char* key, S& out) const {
    std::optional<T> v;
    if constexpr (std::is_same_v<T, bool>) {
      v = reader.get_bool(key);
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = reader.get_string(key);
    } else {
      v = reader.get_string_list(key);
    }
    if (v) out.*member = *std::move(v);
  }
  std::string format(const S& s) const { return format_value(s.*member); }
};

/// An enum member spelled by its token in `names`; `what` names the
/// enum in the "unknown <what> '...'" diagnostic.
template <typename S, typename E>
struct Choice {
  E S::*member;
  std::span<const util::Named<E>> names;
  const char* what;

  void read(TableReader& reader, const char* key, S& out) const {
    if (const auto token = reader.get_string(key)) {
      try {
        out.*member = util::find_named(names, *token, what).value;
      } catch (const std::invalid_argument& e) {
        reader.fail_at(reader.key_line(key), e.what());
      }
    }
  }
  std::string format(const S& s) const {
    return toml::format_string(util::name_of(names, s.*member));
  }
};
template <typename S, typename E, std::size_t N>
Choice(E S::*, const util::Named<E> (&)[N], const char*) -> Choice<S, E>;

template <typename S>
struct Field {
  const char* key;
  std::variant<Ranged<S, int>, Ranged<S, std::uint32_t>,
               Ranged<S, std::uint64_t>, Ranged<S, double>, Axis<S, int>,
               Axis<S, std::uint64_t>, Plain<S, bool>, Plain<S, std::string>,
               Plain<S, std::vector<std::string>>, Choice<S, memsim::Pattern>,
               Choice<S, bool>>
      member;
  const char* unit;
  bool (*written)(const S&) = nullptr;  ///< Dumps omit the key if false.
};

inline constexpr util::Named<memsim::Pattern> kPatternNames[] = {
    {"streaming", memsim::Pattern::kStreaming},
    {"strided", memsim::Pattern::kStrided},
    {"random", memsim::Pattern::kRandom},
    {"pointer_chase", memsim::Pattern::kPointerChase},
    {"mixed", memsim::Pattern::kMixed},
};

/// DramCacheConfig::write_allocate spelled as a write-miss policy.
inline constexpr util::Named<bool> kCachePolicyNames[] = {
    {"write-allocate", true}, {"write-no-allocate", false}};

// --- The tables; row order is document order.

template <typename S>
struct Schema;

template <>
struct Schema<memsim::DeviceTiming> {
  using S = memsim::DeviceTiming;
  static constexpr std::uint64_t kMax = UINT64_MAX;
  static constexpr Field<S> fields[] = {
      {"channels", Ranged{&S::channels, 1, INT_MAX}, "channels"},
      {"banks_per_channel", Ranged{&S::banks_per_channel, 1, INT_MAX}, "banks"},
      {"line_bytes", Ranged{&S::line_bytes, 1, UINT32_MAX}, "B, 2^k"},
      {"line_striped_across_banks", &S::line_striped_across_banks, "bool"},
      {"accesses_per_line", Ranged{&S::accesses_per_line, 1, INT_MAX}, "n"},
      {"read_occupancy_ps", Ranged{&S::read_occupancy_ps, 0, kMax}, "ps"},
      {"write_occupancy_ps", Ranged{&S::write_occupancy_ps, 0, kMax}, "ps"},
      {"burst_ps", Ranged{&S::burst_ps, 0, kMax}, "ps"},
      {"interface_ps", Ranged{&S::interface_ps, 0, kMax}, "ps"},
      {"read_tail_ps", Ranged{&S::read_tail_ps, 0, kMax}, "ps"},
      {"write_tail_ps", Ranged{&S::write_tail_ps, 0, kMax}, "ps"},
      {"has_row_buffer", &S::has_row_buffer, "bool"},
      {"row_size_bytes", Ranged{&S::row_size_bytes, 0, kMax}, "B"},
      {"row_hit_saving_ps", Ranged{&S::row_hit_saving_ps, 0, kMax}, "ps"},
      {"refresh_interval_ps", Ranged{&S::refresh_interval_ps, 0, kMax}, "ps"},
      {"refresh_duration_ps", Ranged{&S::refresh_duration_ps, 0, kMax}, "ps"},
      {"region_size_bytes", Ranged{&S::region_size_bytes, 0, kMax}, "B"},
      {"region_switch_ps", Ranged{&S::region_switch_ps, 0, kMax}, "ps"},
      {"queue_depth", Ranged{&S::queue_depth, 1, INT_MAX}, "requests"},
  };
};

template <>
struct Schema<memsim::DeviceEnergy> {
  using S = memsim::DeviceEnergy;
  static constexpr Field<S> fields[] = {
      {"read_pj_per_bit", Ranged{&S::read_pj_per_bit, 0.0, 1e9}, "pJ/bit"},
      {"write_pj_per_bit", Ranged{&S::write_pj_per_bit, 0.0, 1e9}, "pJ/bit"},
      {"background_power_w", Ranged{&S::background_power_w, 0.0, 1e6}, "W"},
      {"gateable_background_power_w",
       Ranged{&S::gateable_background_power_w, 0.0, 1e6}, "W"},
  };
};

template <>
struct Schema<memsim::WorkloadProfile> {
  using S = memsim::WorkloadProfile;
  static constexpr Field<S> fields[] = {
      {"name", &S::name, "required"},
      {"pattern", Choice{&S::pattern, kPatternNames, "pattern"}, "token"},
      {"read_fraction", Ranged{&S::read_fraction, 0.0, 1.0}, "fraction"},
      {"locality", Ranged{&S::locality, 0.0, 1.0}, "fraction"},
      {"zipf_exponent", Ranged{&S::zipf_exponent, 0.0, 16.0}, "skew"},
      {"working_set_bytes", Ranged{&S::working_set_bytes, 1, UINT64_MAX}, "B"},
      {"avg_interarrival_ns", Ranged{&S::avg_interarrival_ns, 1e-6, 1e12},
       "ns"},
      {"stride_bytes", Ranged{&S::stride_bytes, 1, UINT32_MAX}, "B"},
  };
};

template <>
struct Schema<hybrid::DramCacheConfig> {
  using S = hybrid::DramCacheConfig;
  static constexpr Field<S> fields[] = {
      {"capacity_bytes", Ranged{&S::capacity_bytes, 1, UINT64_MAX}, "B"},
      {"ways", Ranged{&S::ways, 1, INT_MAX}, "associativity"},
      {"line_bytes", Ranged{&S::line_bytes, 1, UINT32_MAX}, "B"},
      {"policy", Choice{&S::write_allocate, kCachePolicyNames, "cache policy"},
       "token"},
  };
};

template <>
struct Schema<sched::ControllerConfig> {
  using S = sched::ControllerConfig;
  static constexpr Field<S> fields[] = {
      {"read_queue_depth", Ranged{&S::read_queue_depth, 0, INT_MAX},
       "entries, 0 = unbounded"},
      {"write_queue_depth", Ranged{&S::write_queue_depth, 0, INT_MAX},
       "entries, 0 = unbounded"},
      {"drain_high_watermark", Ranged{&S::drain_high_watermark, 1, INT_MAX},
       "writes"},
      {"drain_low_watermark", Ranged{&S::drain_low_watermark, 0, INT_MAX},
       "writes"},
      {"tenant_tokens", Ranged{&S::tenant_tokens, 1, INT_MAX}, "issues"},
      {"starvation_cap", Ranged{&S::starvation_cap, 1, INT_MAX}, "passes"},
  };
};

template <>
struct Schema<telemetry::TelemetrySpec> {
  using S = telemetry::TelemetrySpec;
  static constexpr Field<S> fields[] = {
      {"trace_out", &S::trace_path, "path",
       [](const S& s) { return s.tracing(); }},
      {"trace_limit", Ranged{&S::trace_limit, 0, UINT64_MAX}, "events",
       [](const S& s) { return s.tracing(); }},
      {"metrics_interval_ns",
       Ranged{&S::metrics_interval_ps, 1, UINT64_MAX / 1000, 1000}, "ns",
       [](const S& s) { return s.sampling(); }},
      {"metrics_csv", &S::metrics_csv, "path",
       [](const S& s) { return !s.metrics_csv.empty(); }},
  };
};

template <>
struct Schema<prof::ProfSpec> {
  using S = prof::ProfSpec;
  static constexpr Field<S> fields[] = {
      {"enabled", &S::profile, "bool",
       [](const S& s) { return s.profiling(); }},
      {"progress_ms", Ranged{&S::progress_ms, 1, UINT64_MAX}, "ms",
       [](const S& s) { return s.heartbeat(); }},
  };
};

template <>
struct Schema<TenantSpec> {
  using S = TenantSpec;
  static constexpr Field<S> fields[] = {
      {"trace_file", &S::trace_file, "path",
       [](const S& s) { return !s.trace_file.empty(); }},
      {"interarrival_ns", Ranged{&S::interarrival_ns, 0.0, 1e12}, "ns",
       [](const S& s) { return s.interarrival_ns > 0.0; }},
      {"burstiness", Ranged{&S::burstiness, 0.0, 1.0}, "[0, 1)",
       [](const S& s) { return s.burstiness > 0.0; }},
      {"requests", Ranged{&S::requests, 1, UINT64_MAX}, "requests",
       [](const S& s) { return s.requests != 0; }},
  };
};

/// The `[experiment]` header.
template <>
struct Schema<ExperimentSpec> {
  using S = ExperimentSpec;
  static constexpr Field<S> fields[] = {
      {"name", &S::name, "label"},
      {"devices", &S::device_tokens, "tokens",
       [](const S& s) { return !s.device_tokens.empty(); }},
      {"workloads", &S::workload_names, "profiles",
       [](const S& s) { return !s.workload_names.empty(); }},
      {"requests", Axis{&S::requests, 1, SIZE_MAX}, "requests"},
      {"seed", Axis{&S::seeds, 0, UINT64_MAX}, "seed"},
      {"channels", Axis{&S::channels, 0, INT_MAX}, "0 = device's own"},
      {"line_bytes", Ranged{&S::line_bytes, 1, UINT32_MAX}, "B"},
      {"trace_file", &S::trace_file, "path",
       [](const S& s) { return !s.trace_file.empty(); }},
      {"cpu_ghz", Ranged{&S::cpu_ghz, 1e-6, 1e6}, "GHz, trace clock"},
  };
};

/// Applies every table key present in `reader`'s table onto `out`
/// (absent keys keep their value), with the reader's type and range
/// checks and file:line diagnostics.
template <typename S>
void read_fields(TableReader& reader, S& out) {
  for (const Field<S>& f : Schema<S>::fields) {
    std::visit([&](const auto& m) { m.read(reader, f.key, out); }, f.member);
  }
}

/// Writes a `key = value` line per row whose `written` holds and whose
/// key `keep` accepts.
template <typename S, typename Keep>
void write_fields(std::ostream& os, const S& value, Keep&& keep) {
  for (const Field<S>& f : Schema<S>::fields) {
    if ((f.written && !f.written(value)) || !keep(f.key)) continue;
    os << f.key << " = "
       << std::visit([&](const auto& m) { return m.format(value); }, f.member)
       << "\n";
  }
}
template <typename S>
void write_fields(std::ostream& os, const S& value) {
  write_fields(os, value, [](const char*) { return true; });
}

}  // namespace comet::config
