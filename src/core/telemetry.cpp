#include "core/telemetry.h"

#include "rx/receiver.h"

namespace cbma::core {

void Telemetry::write_json_section(util::JsonWriter& w,
                                   const telemetry::Snapshot& snap) {
  w.key("telemetry").begin_object();
  w.key("threads").value(static_cast<std::uint64_t>(snap.threads));

  w.key("spans").begin_array();
  for (const auto& s : snap.spans) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("count").value(s.count);
    w.key("total_ns").value(s.total_ns);
    w.key("min_ns").value(s.min_ns);
    w.key("max_ns").value(s.max_ns);
    w.key("mean_ns").value(s.mean_ns);
    w.key("p50_ns").value(s.p50_ns);
    w.key("p90_ns").value(s.p90_ns);
    w.key("p99_ns").value(s.p99_ns);
    w.end_object();
  }
  w.end_array();

  w.key("counters").begin_object();
  for (const auto& c : snap.counters) w.key(c.name).value(c.value);
  w.end_object();

  w.key("flight_recorder").begin_array();
  for (const auto& f : snap.frames) {
    w.begin_object();
    w.key("seq").value(f.seq);
    w.key("ts_ns").value(f.ts_ns);
    w.key("tag").value(static_cast<std::uint64_t>(f.tag_id));
    w.key("code_length").value(static_cast<std::uint64_t>(f.pn_code_length));
    w.key("correlation").value(f.correlation);
    w.key("margin").value(f.margin);
    w.key("cfo_hz").value(f.cfo_hz);
    w.key("power_dbm").value(f.power_dbm);
    w.key("impedance_level")
        .value(static_cast<std::uint64_t>(f.impedance_level));
    w.key("outcome").value(
        rx::to_string(static_cast<rx::DecodeOutcome>(f.outcome)));
    w.key("impairment_gates")
        .value(static_cast<std::uint64_t>(f.impairment_gates));
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

}  // namespace cbma::core
