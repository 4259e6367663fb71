#include "obs/live/flight_recorder.h"

#include <csignal>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "obs/json.h"
#include "obs/live/telemetry.h"
#include "obs/perfetto.h"
#include "obs/trace.h"

namespace ugrpc::obs::live {

namespace {

namespace fs = std::filesystem;

bool write_file(const fs::path& path, std::string_view contents, std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path.string();
    return false;
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "short write to " + path.string();
    return false;
  }
  return true;
}

std::string stamp_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y%m%d-%H%M%S", &tm);
  return buf;
}

TelemetryHub* g_crash_hub = nullptr;

void crash_handler(int sig) {
  TelemetryHub* hub = g_crash_hub;
  g_crash_hub = nullptr;  // one attempt only, even if the dump itself faults
  if (hub != nullptr) {
    const char* name = "signal";
    switch (sig) {
      case SIGSEGV: name = "signal:SIGSEGV"; break;
      case SIGBUS: name = "signal:SIGBUS"; break;
      case SIGFPE: name = "signal:SIGFPE"; break;
      case SIGABRT: name = "signal:SIGABRT"; break;
      default: break;
    }
    (void)hub->trip(name);
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

constexpr int kCrashSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGABRT};

}  // namespace

std::optional<std::string> dump_flight(const TelemetryHub& hub, std::string_view reason,
                                       std::uint64_t seq, std::string* error) {
  const fs::path base = hub.flight_dir();
  const std::string name = "flight-" + stamp_utc() + "-" + std::to_string(seq);
  const fs::path tmp = base / (".tmp-" + name);
  const fs::path final_dir = base / name;

  std::error_code ec;
  fs::create_directories(tmp, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create " + tmp.string() + ": " + ec.message();
    return std::nullopt;
  }

  std::string manifest = "{\n  \"reason\": " + json_str(reason) +
                         ",\n  \"stamp_utc\": " + json_str(stamp_utc()) +
                         ",\n  \"seq\": " + std::to_string(seq) +
                         ",\n  \"files\": [\"trace.json\", \"spans.json\", \"metrics.json\", "
                         "\"metrics.prom\", \"introspect.json\"]";
  const std::string extra = hub.manifest_extra();
  if (!extra.empty()) manifest += ",\n  " + extra;
  manifest += "\n}\n";

  if (!write_file(tmp / "MANIFEST.json", manifest, error) ||
      !write_file(tmp / "trace.json", hub.tracer().dump_json(), error) ||
      !write_file(tmp / "spans.json", export_perfetto(hub.tracer()), error) ||
      !write_file(tmp / "metrics.json", hub.metrics_json(), error) ||
      !write_file(tmp / "metrics.prom", hub.metrics_text(), error) ||
      !write_file(tmp / "introspect.json", hub.introspection_json(), error)) {
    fs::remove_all(tmp, ec);
    return std::nullopt;
  }

  fs::rename(tmp, final_dir, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot rename to " + final_dir.string() + ": " + ec.message();
    fs::remove_all(tmp, ec);
    return std::nullopt;
  }
  return final_dir.string();
}

void install_crash_handler(TelemetryHub* hub) {
  g_crash_hub = hub;
  for (const int sig : kCrashSignals) {
    std::signal(sig, hub != nullptr ? crash_handler : SIG_DFL);
  }
}

}  // namespace ugrpc::obs::live
