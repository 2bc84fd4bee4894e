#include "open_loop.h"

#include <algorithm>
#include <chrono>

namespace deepdirect::perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void LinePool::Add(const std::string& line) {
  if (offsets.empty()) offsets.push_back(0);
  text += line;
  offsets.push_back(text.size());
}

void RungBuffers::Reserve(size_t lines, size_t bytes) {
  for (auto* v : {&queue_wait_ns, &gen_late_ns, &flush_ns}) v->assign(lines, 0);
  text.assign(bytes, ' ');
  Clear();
}

void RungBuffers::Clear() {
  for (auto* v : {&queue_wait_ns, &gen_late_ns, &flush_ns}) v->clear();
  text.clear();
}

PacedSource::PacedSource(const LinePool& pool, size_t first, size_t count,
                         uint64_t start_ns, double interval_ns,
                         RungBuffers& buffers)
    : pool_(pool),
      first_(first),
      count_(count),
      start_ns_(start_ns),
      interval_ns_(interval_ns),
      buffers_(buffers) {}

uint64_t PacedSource::due_ns(size_t i) const {
  return start_ns_ + static_cast<uint64_t>(interval_ns_ * static_cast<double>(i));
}

PacedSource::int_type PacedSource::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (next_ == count_) return traits_type::eof();
  const uint64_t due = due_ns(next_);
  const uint64_t asked = NowNs();
  uint64_t now = asked;
  while (now < due) now = NowNs();
  buffers_.queue_wait_ns.push_back(asked > due ? asked - due : 0);
  buffers_.gen_late_ns.push_back(asked < due ? now - due : 0);
  const size_t line = (first_ + next_) % pool_.size();
  char* begin = const_cast<char*>(pool_.text.data()) + pool_.offsets[line];
  char* end = const_cast<char*>(pool_.text.data()) + pool_.offsets[line + 1];
  setg(begin, begin, end);
  ++next_;
  return traits_type::to_int_type(*gptr());
}

StampingSink::int_type StampingSink::overflow(int_type c) {
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    buffers_.text.push_back(traits_type::to_char_type(c));
  }
  return traits_type::not_eof(c);
}

std::streamsize StampingSink::xsputn(const char* s, std::streamsize n) {
  buffers_.text.append(s, static_cast<size_t>(n));
  return n;
}

int StampingSink::sync() {
  buffers_.flush_ns.push_back(NowNs());
  return 0;
}

OpenLoopSample Account(const PacedSource& source, const RungBuffers& buffers,
                       uint64_t start_ns) {
  const std::vector<uint64_t>& flush = buffers.flush_ns;
  OpenLoopSample out;
  const size_t n = std::min(source.handed(), flush.size());
  out.latency_us.resize(n);
  out.queue_wait_us.resize(n);
  out.gen_late_us.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.latency_us[i] =
        static_cast<double>(flush[i] - source.due_ns(i)) * 1e-3;
    out.queue_wait_us[i] = static_cast<double>(buffers.queue_wait_ns[i]) * 1e-3;
    out.gen_late_us[i] = static_cast<double>(buffers.gen_late_ns[i]) * 1e-3;
  }
  if (n > 0) {
    out.elapsed_s = static_cast<double>(flush[n - 1] - start_ns) * 1e-9;
  }
  return out;
}

}  // namespace deepdirect::perfbench
