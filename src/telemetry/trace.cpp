#include "telemetry/trace.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "telemetry/metrics.hpp"

namespace sdx::telemetry {

Span::Span(SpanTracer* tracer, std::string name)
    : tracer_(tracer), name_(std::move(name)) {
  if (tracer_ != nullptr) start_ = std::chrono::steady_clock::now();
}

Span::Span(Span&& other) noexcept
    : tracer_(std::exchange(other.tracer_, nullptr)),
      name_(std::move(other.name_)),
      start_(other.start_) {}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    finish();
    tracer_ = std::exchange(other.tracer_, nullptr);
    name_ = std::move(other.name_);
    start_ = other.start_;
  }
  return *this;
}

void Span::finish() {
  if (tracer_ == nullptr) return;
  tracer_->record(name_, start_, std::chrono::steady_clock::now());
  tracer_ = nullptr;
}

void SpanTracer::record(const std::string& name,
                        std::chrono::steady_clock::time_point start,
                        std::chrono::steady_clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, _] = tids_.try_emplace(std::this_thread::get_id(),
                                   static_cast<std::uint32_t>(tids_.size()));
  Record r;
  r.name = name;
  r.start_us = std::chrono::duration<double, std::micro>(start - epoch_).count();
  r.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  r.tid = it->second;
  if (records_.size() == kCapacity) {
    records_.pop_front();
    ++dropped_;
    if (drop_counter_ != nullptr) drop_counter_->inc();
  }
  records_.push_back(std::move(r));
}

std::vector<SpanTracer::Record> SpanTracer::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {records_.begin(), records_.end()};
}

std::uint64_t SpanTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void SpanTracer::set_drop_counter(Counter* counter) {
  std::lock_guard<std::mutex> lock(mu_);
  drop_counter_ = counter;
}

std::string SpanTracer::render_chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i > 0) os << ",";
    std::string name;
    name.reserve(r.name.size());
    for (char c : r.name) {
      if (c == '"' || c == '\\') name.push_back('\\');
      name.push_back(c);
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", r.start_us,
                  r.dur_us);
    os << "{\"name\":\"" << name << "\",\"cat\":\"sdx\",\"ph\":\"X\","
       << buf << ",\"pid\":1,\"tid\":" << r.tid << "}";
  }
  os << "]}";
  return os.str();
}

void SpanTracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  dropped_ = 0;
  tids_.clear();
}

}  // namespace sdx::telemetry
