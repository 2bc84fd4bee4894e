// Open-loop load generation for serve::RunServeLoop, in process.
//
// PacedSource is the loop's input stream: it hands over one request line
// per underflow(), never before the line's due time (it spins on the
// steady clock until then), so requests arrive on a fixed schedule however
// fast or slow the server is. StampingSink is the output stream: it keeps
// the response bytes and stamps the clock at every flush — RunServeLoop
// flushes once per response line. A request's latency runs from its due
// time to its response flush, so a stall delays every request that fell
// due during it (no coordinated omission).
//
// Per request the source also records how long the line waited for the
// server (queue wait: the server asked for it after it was due) and how
// late the generator itself handed it over when the server was already
// waiting (generator lateness: preemption during the spin).

#ifndef DEEPDIRECT_PERFBENCH_OPEN_LOOP_H_
#define DEEPDIRECT_PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <streambuf>
#include <string>
#include <vector>

namespace deepdirect::perfbench {

/// Steady-clock nanoseconds.
uint64_t NowNs();

/// Request lines (each ending in '\n') stored back to back.
struct LinePool {
  std::string text;
  std::vector<size_t> offsets;  ///< line i is [offsets[i], offsets[i+1])
  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  void Add(const std::string& line);
};

/// Per-request storage of one paced run, reused from run to run: reserve
/// it once, up front, and the benchmark's own memory stays the same
/// whatever rates a session reaches.
struct RungBuffers {
  std::vector<uint64_t> queue_wait_ns;
  std::vector<uint64_t> gen_late_ns;
  std::vector<uint64_t> flush_ns;
  std::string text;  ///< response bytes
  /// Reserves and touches room for `lines` requests and `bytes` of output.
  void Reserve(size_t lines, size_t bytes);
  void Clear();
};

/// Paced input stream over `count` lines of `pool`, starting at line
/// `first` and wrapping. Line i falls due at start_ns + i·interval_ns
/// (interval 0: every line is due at start_ns — a saturation drain).
class PacedSource : public std::streambuf {
 public:
  PacedSource(const LinePool& pool, size_t first, size_t count,
              uint64_t start_ns, double interval_ns, RungBuffers& buffers);

  size_t handed() const { return next_; }
  uint64_t due_ns(size_t i) const;

 protected:
  int_type underflow() override;

 private:
  const LinePool& pool_;
  size_t first_;
  size_t count_;
  uint64_t start_ns_;
  double interval_ns_;
  size_t next_ = 0;
  RungBuffers& buffers_;
};

/// Output stream that keeps the bytes and stamps every flush.
class StampingSink : public std::streambuf {
 public:
  explicit StampingSink(RungBuffers& buffers) : buffers_(buffers) {}

 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int sync() override;

 private:
  RungBuffers& buffers_;
};

/// Per-request accounting of one paced run.
struct OpenLoopSample {
  std::vector<double> latency_us;     ///< due → response flush
  std::vector<double> queue_wait_us;  ///< due → the server asked for it
  std::vector<double> gen_late_us;    ///< generator lateness (idle server)
  double elapsed_s = 0.0;             ///< start → last flush
};

/// Turns a finished paced run into per-request numbers. Requires one flush
/// per handed line (the serve loop's contract).
OpenLoopSample Account(const PacedSource& source, const RungBuffers& buffers,
                       uint64_t start_ns);

}  // namespace deepdirect::perfbench

#endif  // DEEPDIRECT_PERFBENCH_OPEN_LOOP_H_
