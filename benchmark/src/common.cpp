#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace capbench {

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return sorted_quantile(v, q);
}

std::uint32_t Trace::intern(const std::string& name) {
  const auto [it, fresh] =
      ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (fresh) {
    names_.push_back(name);
    self_us_.emplace_back();
  }
  return it->second;
}

std::int32_t Trace::open(std::uint32_t name, std::int32_t parent,
                         std::uint32_t pass) {
  return add(name, parent, pass, now_ns(), 0);
}

std::int32_t Trace::add(std::uint32_t name, std::int32_t parent,
                        std::uint32_t pass, std::int64_t start_ns,
                        std::int64_t end_ns, bool flushed) {
  spans_.push_back(Span{name, parent, pass, flushed, start_ns, end_ns});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Trace::end_pass() {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    // Children may overlap (one worker span per thread), so subtract the
    // union of their intervals, clipped to the parent's.
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, reach);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    const std::uint32_t key =
        s.flushed ? intern(names_[s.name] + ".flushed") : s.name;
    self_us_[key].push_back(
        static_cast<float>((s.end_ns - s.start_ns - covered) * 1e-3));
  }
  if (!spans_.empty() && spans_.front().pass < kept_passes_) {
    const auto base = static_cast<std::int32_t>(kept_.size());
    for (Span s : spans_) {
      if (s.parent >= 0) s.parent += base;
      kept_.push_back(s);
    }
  }
  spans_.clear();
}

bool Trace::write_json(const std::string& path,
                       const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"fields\": [\"name\", \"parent\", "
               "\"pass\", \"start_ns\", \"end_ns\", \"flushed\"],\n\"names\": [",
               workload.c_str());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  std::fprintf(f, "],\n\"spans\": [");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f, "%s\n[%u, %d, %u, %lld, %lld, %d]", i == 0 ? "" : ",",
                 s.name, s.parent, s.pass, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.flushed ? 1 : 0);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace capbench
