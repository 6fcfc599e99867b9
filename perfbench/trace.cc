// Span collection and the span file of the traced run.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace perfbench {

std::vector<SpanRecord> Tracer::Collect(uint64_t* dropped) const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out = spans_;
    *dropped = dropped_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  std::unordered_map<uint32_t, uint32_t> pos;
  pos.reserve(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    pos[out[i].id] = static_cast<uint32_t>(i + 1);
  }
  for (SpanRecord& s : out) {
    s.id = pos[s.id];
    auto it = pos.find(s.parent);
    s.parent = it == pos.end() ? 0 : it->second;
  }
  return out;
}

bool Tracer::WriteOut(const std::string& path) const {
  uint64_t dropped = 0;
  const std::vector<SpanRecord> spans = Collect(&dropped);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  const auto by_name = SelfTimeByName(spans);

  std::unordered_map<std::string, size_t> count;
  for (const SpanRecord& s : spans) ++count[s.name];
  std::vector<std::pair<std::string, int64_t>> by_layer;
  for (const auto& [name, ns] : by_name) {
    const std::string layer = name.substr(0, name.find('.'));
    auto it = std::find_if(by_layer.begin(), by_layer.end(),
                           [&](const auto& x) { return x.first == layer; });
    if (it == by_layer.end()) {
      by_layer.emplace_back(layer, ns);
    } else {
      it->second += ns;
    }
  }

  std::printf("info   span self time (%zu spans, %llu dropped at the cap):\n",
              spans.size(), static_cast<unsigned long long>(dropped));
  for (const auto& [name, ns] : by_name) {
    std::printf("span   %-32s %10zu calls %12.3f ms self\n", name.c_str(),
                count[name], static_cast<double>(ns) / 1e6);
  }
  for (const auto& [layer, ns] : by_layer) {
    std::printf("span   layer %-26s %12.3f ms self\n", layer.c_str(),
                static_cast<double>(ns) / 1e6);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"dropped\": %llu,\n\"self_time_by_name\": [",
               static_cast<unsigned long long>(dropped));
  for (size_t i = 0; i < by_name.size(); ++i) {
    std::fprintf(f, "%s\n {\"name\": \"%s\", \"calls\": %zu, \"self_ns\": %lld}",
                 i ? "," : "", by_name[i].first.c_str(),
                 count[by_name[i].first],
                 static_cast<long long>(by_name[i].second));
  }
  std::fprintf(f, "],\n\"self_time_by_layer\": [");
  for (size_t i = 0; i < by_layer.size(); ++i) {
    std::fprintf(f, "%s\n {\"layer\": \"%s\", \"self_ns\": %lld}",
                 i ? "," : "", by_layer[i].first.c_str(),
                 static_cast<long long>(by_layer[i].second));
  }
  std::fprintf(f, "],\n\"spans\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n {\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                 "\"group\": %llu, \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld}",
                 i ? "," : "", s.name, s.id, s.parent,
                 static_cast<unsigned long long>(s.group),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
