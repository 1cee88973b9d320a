#include "gpusim/profiler.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace culda::gpusim {

void PrintProfile(const Device& device, std::ostream& out) {
  double total_s = 0;
  for (const auto& [name, prof] : device.profile()) total_s += prof.total_s;

  out << device.spec().name << " kernel profile ("
      << TextTable::Num(total_s * 1e3, 4) << " ms total):\n";
  TextTable table({"kernel", "launches", "ms", "share", "DRAM MB",
                   "atomics"});
  for (const auto& [name, prof] : device.profile()) {
    table.AddRow({name, std::to_string(prof.launches),
                  TextTable::Num(prof.total_s * 1e3, 4),
                  total_s > 0
                      ? TextTable::Num(prof.total_s / total_s * 100, 3) + "%"
                      : "-",
                  TextTable::Num(
                      prof.counters.TotalOffChipBytes() / 1e6, 4),
                  std::to_string(prof.counters.atomic_ops)});
  }
  table.Print(out);
}

namespace {

/// One device's aggregates as a JsonObject (shared by both overloads).
obs::JsonObject ProfileObject(const Device& device) {
  double total_s = 0;
  for (const auto& [name, prof] : device.profile()) total_s += prof.total_s;

  obs::JsonObject kernels;
  for (const auto& [name, prof] : device.profile()) {
    obs::JsonObject k;
    k.Add("launches", prof.launches)
        .Add("total_s", prof.total_s)
        .Add("share", total_s > 0 ? prof.total_s / total_s : 0.0)
        .Add("offchip_bytes", prof.counters.TotalOffChipBytes())
        .Add("atomic_ops", prof.counters.atomic_ops);
    kernels.AddRaw(name, k.str());
  }

  obs::JsonObject o;
  o.Add("device", device.spec().name)
      .Add("id", device.id())
      .Add("total_s", total_s)
      .Add("transfer_bytes", device.transfer_bytes())
      .Add("transfer_seconds", device.transfer_seconds())
      .AddRaw("kernels", kernels.str());
  return o;
}

}  // namespace

void WriteProfileJson(const Device& device, std::ostream& out) {
  obs::JsonObject o;
  o.Add("schema", "culda.profile.v1");
  o.Extend(ProfileObject(device));
  out << o.str() << "\n";
}

void WriteProfileJson(const DeviceGroup& group, std::ostream& out) {
  std::string devices = "[";
  for (size_t g = 0; g < group.size(); ++g) {
    if (g > 0) devices += ",";
    devices += ProfileObject(group.device(g)).str();
  }
  devices += "]";
  obs::JsonObject o;
  o.Add("schema", "culda.profile.v1")
      .Add("peer_bytes", group.peer_bytes())
      .AddRaw("devices", devices);
  out << o.str() << "\n";
}

namespace {

void EmitDeviceEvents(const Device& device, bool& first, std::ostream& out) {
  for (const auto& rec : device.trace()) {
    if (!first) out << ",\n";
    first = false;
    out << "  {\"name\": \"" << rec.name << "\", \"ph\": \"X\""
        << ", \"pid\": " << device.id() << ", \"tid\": " << rec.stream_id
        << ", \"ts\": " << rec.start_s * 1e6
        << ", \"dur\": " << (rec.end_s - rec.start_s) * 1e6 << "}";
  }
}

}  // namespace

void WriteChromeTrace(const DeviceGroup& group, std::ostream& out) {
  out << "[\n";
  bool first = true;
  for (size_t g = 0; g < group.size(); ++g) {
    EmitDeviceEvents(group.device(g), first, out);
  }
  out << "\n]\n";
}

void WriteChromeTrace(const Device& device, std::ostream& out) {
  out << "[\n";
  bool first = true;
  EmitDeviceEvents(device, first, out);
  out << "\n]\n";
}

void WriteMergedChromeTrace(const DeviceGroup& group,
                            const obs::SpanTracer& tracer,
                            std::ostream& out) {
  std::vector<obs::TraceEvent> events;
  std::vector<obs::TraceProcess> processes;
  std::vector<obs::TraceThread> threads;

  for (size_t g = 0; g < group.size(); ++g) {
    const Device& device = group.device(g);
    processes.push_back(
        {device.id(), "sim " + device.spec().name + " (device " +
                          std::to_string(device.id()) + ")"});
    std::set<int> streams;
    for (const auto& rec : device.trace()) {
      obs::TraceEvent e;
      e.name = rec.name;
      e.pid = device.id();
      e.tid = rec.stream_id;
      e.start_s = rec.start_s;
      e.dur_s = rec.end_s - rec.start_s;
      events.push_back(std::move(e));
      streams.insert(rec.stream_id);
    }
    for (const int s : streams) {
      threads.push_back({device.id(), s, "stream " + std::to_string(s)});
    }
  }

  processes.push_back({obs::kHostTracePid, "host (wall clock)"});
  const auto host_events = tracer.CollectEvents();
  events.insert(events.end(), host_events.begin(), host_events.end());
  const auto host_threads = tracer.CollectThreads();
  threads.insert(threads.end(), host_threads.begin(), host_threads.end());

  obs::WriteChromeTraceJson(events, processes, threads, out);
}

}  // namespace culda::gpusim
