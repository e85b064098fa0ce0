//===- Trace.h - Structured tracing for the EXTRA pipeline ------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead structured tracing: scoped spans and typed events
/// serialized as JSONL, one record per line. A span measures a region
/// (wall and thread-CPU time, id + parent id); an event is a point
/// observation attached to a span. Both carry a typed key-value payload.
///
/// The contract instrumented code relies on:
///
///  * `TraceSink::enabled()` is a plain bool read — no virtual call — so
///    the hot path of disabled tracing is one branch. Instrumentation
///    sites hold a `TraceSink *` that is null (or the shared no-op sink)
///    when tracing is off and guard every payload construction behind
///    `enabled()`.
///  * Sinks are thread-safe: the search batch driver shares one sink
///    across its worker pool. Records from different threads interleave
///    at line granularity; span ids are process-unique within a sink.
///  * Records are append-only and each line is complete JSON, so a trace
///    truncated by a crash is still parseable up to the last line
///    (obs::readTrace in TraceFile.h is the reading half).
///
/// Record schema (all times in microseconds; `ts_us` is relative to sink
/// creation, `seq` is a per-sink monotonic sequence number):
///
///   {"t":"span","seq":N,"id":I,"parent":P,"name":"...","ts_us":T,
///    "wall_us":W,"cpu_us":C, ...payload}
///   {"t":"event","seq":N,"span":I,"name":"...","ts_us":T, ...payload}
///
/// Spans are emitted when they *end* (the record carries the start
/// timestamp), so parents usually appear after their children; readers
/// must key on ids, not line order.
///
//===----------------------------------------------------------------------===//

#ifndef EXTRA_OBS_TRACE_H
#define EXTRA_OBS_TRACE_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace extra {
namespace obs {

/// Escapes \p S for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string jsonEscape(std::string_view S);

/// A typed key-value payload for spans and events. Values are rendered
/// into JSON immediately on add(), so a Payload is cheap to move and the
/// sink never re-inspects types. Only build one behind an `enabled()`
/// check.
class Payload {
public:
  Payload &add(std::string_view Key, std::string_view Value);
  Payload &add(std::string_view Key, const char *Value) {
    return add(Key, std::string_view(Value));
  }
  Payload &add(std::string_view Key, uint64_t Value);
  Payload &add(std::string_view Key, int64_t Value);
  Payload &add(std::string_view Key, unsigned Value) {
    return add(Key, static_cast<uint64_t>(Value));
  }
  Payload &add(std::string_view Key, int Value) {
    return add(Key, static_cast<int64_t>(Value));
  }
  Payload &add(std::string_view Key, double Value);
  Payload &add(std::string_view Key, bool Value);
  /// Renders \p Value as "0x<hex>" — 64-bit fingerprints do not survive
  /// a round-trip through JSON number parsers that use doubles.
  Payload &addHex(std::string_view Key, uint64_t Value);

  /// The rendered fragment: `,"k":v,"k2":v2` (leading comma), or empty.
  const std::string &rendered() const { return Text; }

private:
  Payload &raw(std::string_view Key, std::string_view JsonValue);
  std::string Text;
};

/// Abstract sink for spans and events. `enabled()` is a non-virtual flag
/// read so disabled instrumentation costs one branch; the emitting
/// methods are virtual and only reached when enabled.
class TraceSink {
public:
  virtual ~TraceSink();

  /// True when this sink records anything. Instrumentation must guard
  /// payload construction behind this.
  bool enabled() const { return On; }

  /// Opens a span under \p Parent (0 = root). Returns the new span id,
  /// or 0 when disabled. The payload is attached to the span record
  /// emitted by endSpan.
  virtual uint64_t beginSpan(std::string_view Name, uint64_t Parent = 0,
                             Payload P = Payload()) = 0;
  /// Closes a span (no-op for id 0 or unknown ids).
  virtual void endSpan(uint64_t Id) = 0;
  /// Emits a point event attached to \p Span (0 = top level).
  virtual void event(std::string_view Name, uint64_t Span,
                     Payload P = Payload()) = 0;

  /// The shared disabled sink: enabled() is false, every method is a
  /// no-op. Instrumented code may default to this instead of null.
  static TraceSink &noop();

protected:
  explicit TraceSink(bool Enabled) : On(Enabled) {}

private:
  bool On;
};

/// Writes one JSON object per record to an ostream. Thread-safe; the
/// stream must outlive the sink.
class JsonlTraceSink : public TraceSink {
public:
  explicit JsonlTraceSink(std::ostream &OS);
  ~JsonlTraceSink() override;

  uint64_t beginSpan(std::string_view Name, uint64_t Parent,
                     Payload P) override;
  void endSpan(uint64_t Id) override;
  void event(std::string_view Name, uint64_t Span, Payload P) override;

  /// Records emitted so far (spans are counted when they end).
  uint64_t recordCount() const;

private:
  struct OpenSpan {
    std::string Name;
    uint64_t Parent = 0;
    uint64_t StartTsUs = 0;
    uint64_t StartCpuUs = 0;
    Payload P;
  };

  uint64_t nowUs() const;

  mutable std::mutex Mu;
  std::ostream &OS;
  std::map<uint64_t, OpenSpan> Open;
  uint64_t NextId = 1;
  uint64_t Seq = 0;
  uint64_t Emitted = 0;
  std::chrono::steady_clock::time_point Epoch;
};

/// RAII span: begins on construction, ends on destruction. Safe to use
/// on a disabled sink (id stays 0 and nothing is emitted).
class ScopedSpan {
public:
  ScopedSpan(TraceSink &Sink, std::string_view Name, uint64_t Parent = 0,
             Payload P = Payload())
      : Sink(Sink),
        Id(Sink.enabled() ? Sink.beginSpan(Name, Parent, std::move(P)) : 0) {}
  ~ScopedSpan() {
    if (Id)
      Sink.endSpan(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint64_t id() const { return Id; }
  void event(std::string_view Name, Payload P = Payload()) {
    if (Sink.enabled())
      Sink.event(Name, Id, std::move(P));
  }

private:
  TraceSink &Sink;
  uint64_t Id;
};

} // namespace obs
} // namespace extra

#endif // EXTRA_OBS_TRACE_H
