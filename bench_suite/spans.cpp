#include "spans.hpp"

#include <algorithm>
#include <utility>

#include "obs/json.hpp"

namespace dgr::bench {

namespace {

bool is_grouping(const std::string& name) { return name.rfind("bench.", 0) == 0; }

}  // namespace

double SpanLog::at_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

int SpanLog::open(std::string name, std::string id) {
  const double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = std::move(name);
  s.id = std::move(id);
  s.start_us = t;
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::close(int index) {
  const double t = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_us = t;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int SpanLog::add(std::string name, std::string id, double start_us, double end_us, int parent,
                 bool program) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = std::move(name);
  s.id = std::move(id);
  s.start_us = start_us;
  s.end_us = end_us;
  s.parent = parent;
  s.program = program;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::add_stages(int parent, const std::vector<std::pair<std::string, double>>& stages) {
  double t = 0.0;
  std::string id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t = spans_[static_cast<std::size_t>(parent)].start_us;
    id = spans_[static_cast<std::size_t>(parent)].id;
  }
  for (const auto& [name, seconds] : stages) {
    add(name, id, t, t + seconds * 1e6, parent, true);
    t += seconds * 1e6;
  }
}

std::map<std::string, double> SpanLog::self_us_by_name(const std::string& root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    int r = static_cast<int>(i);
    while (r >= 0 && spans_[static_cast<std::size_t>(r)].name != root) {
      r = spans_[static_cast<std::size_t>(r)].parent;
    }
    if (r < 0) continue;
    out[spans_[i].name] += spans_[i].end_us - spans_[i].start_us - child_us[i];
  }
  return out;
}

double SpanLog::total_us(const std::string& root) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == root) total += s.end_us - s.start_us;
  }
  return total;
}

double SpanLog::worst_child_gap() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_us(spans_.size(), 0.0);
  std::vector<char> has_child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    has_child[static_cast<std::size_t>(s.parent)] = 1;
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end_us - spans_[i].start_us;
    if (!is_grouping(spans_[i].name) || !has_child[i] || dur <= 0.0) continue;
    worst = std::max(worst, (dur - child_us[i]) / dur);
  }
  return worst;
}

std::string SpanLog::chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Root spans that overlap in time (concurrent serve requests) go to
  // separate lanes so every lane nests properly; descendants share their
  // root's lane.
  std::vector<int> lane(spans_.size(), 0);
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) roots.push_back(i);
  }
  std::sort(roots.begin(), roots.end(), [this](std::size_t a, std::size_t b) {
    return spans_[a].start_us < spans_[b].start_us;
  });
  std::vector<double> lane_end;
  for (const std::size_t r : roots) {
    std::size_t l = 0;
    while (l < lane_end.size() && lane_end[l] > spans_[r].start_us) ++l;
    if (l == lane_end.size()) lane_end.push_back(0.0);
    lane_end[l] = spans_[r].end_us;
    lane[r] = static_cast<int>(l);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) lane[i] = lane[static_cast<std::size_t>(spans_[i].parent)];
  }

  obs::json::Value events = obs::json::Value::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    obs::json::Value e = obs::json::Value::object();
    e["name"] = s.name;
    e["ph"] = "X";
    e["ts"] = s.start_us;
    e["dur"] = s.end_us - s.start_us;
    e["pid"] = 1;
    e["tid"] = lane[i] + 1;
    obs::json::Value args = obs::json::Value::object();
    args["span"] = i;
    args["parent"] = s.parent;
    if (!s.id.empty()) args["id"] = s.id;
    args["source"] = s.program ? "program" : "bench";
    e["args"] = args;
    events.push_back(std::move(e));
  }
  obs::json::Value doc = obs::json::Value::object();
  doc["traceEvents"] = events;
  return doc.dump();
}

}  // namespace dgr::bench
