//===- Trace.cpp - Structured tracing for the EXTRA pipeline ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <sstream>

using namespace extra;
using namespace extra::obs;

std::string obs::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Payload
//===----------------------------------------------------------------------===//

Payload &Payload::raw(std::string_view Key, std::string_view JsonValue) {
  Text += ",\"";
  Text += jsonEscape(Key);
  Text += "\":";
  Text += JsonValue;
  return *this;
}

Payload &Payload::add(std::string_view Key, std::string_view Value) {
  std::string Quoted;
  Quoted.reserve(Value.size() + 2);
  Quoted += '"';
  Quoted += jsonEscape(Value);
  Quoted += '"';
  return raw(Key, Quoted);
}

Payload &Payload::add(std::string_view Key, uint64_t Value) {
  return raw(Key, std::to_string(Value));
}

Payload &Payload::add(std::string_view Key, int64_t Value) {
  return raw(Key, std::to_string(Value));
}

Payload &Payload::add(std::string_view Key, double Value) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  return raw(Key, Buf);
}

Payload &Payload::add(std::string_view Key, bool Value) {
  return raw(Key, Value ? "true" : "false");
}

Payload &Payload::addHex(std::string_view Key, uint64_t Value) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "\"0x%016" PRIx64 "\"", Value);
  return raw(Key, Buf);
}

//===----------------------------------------------------------------------===//
// TraceSink
//===----------------------------------------------------------------------===//

TraceSink::~TraceSink() = default;

namespace {

class NoopSink final : public TraceSink {
public:
  NoopSink() : TraceSink(/*Enabled=*/false) {}
  uint64_t beginSpan(std::string_view, uint64_t, Payload) override {
    return 0;
  }
  void endSpan(uint64_t) override {}
  void event(std::string_view, uint64_t, Payload) override {}
};

/// Thread CPU time in microseconds (0 where unavailable).
uint64_t threadCpuUs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec Ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts) == 0)
    return static_cast<uint64_t>(Ts.tv_sec) * 1000000 +
           static_cast<uint64_t>(Ts.tv_nsec) / 1000;
#endif
  return 0;
}

} // namespace

TraceSink &TraceSink::noop() {
  static NoopSink Sink;
  return Sink;
}

//===----------------------------------------------------------------------===//
// JsonlTraceSink
//===----------------------------------------------------------------------===//

JsonlTraceSink::JsonlTraceSink(std::ostream &OS)
    : TraceSink(/*Enabled=*/true), OS(OS),
      Epoch(std::chrono::steady_clock::now()) {}

JsonlTraceSink::~JsonlTraceSink() {
  // Spans still open when the sink dies (e.g. an exception unwound past
  // the instrumented region) are closed so the trace stays complete.
  std::unique_lock<std::mutex> Lock(Mu);
  while (!Open.empty()) {
    uint64_t Id = Open.begin()->first;
    Lock.unlock();
    endSpan(Id);
    Lock.lock();
  }
}

uint64_t JsonlTraceSink::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

uint64_t JsonlTraceSink::recordCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Emitted;
}

uint64_t JsonlTraceSink::beginSpan(std::string_view Name, uint64_t Parent,
                                   Payload P) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t Id = NextId++;
  Open[Id] = OpenSpan{std::string(Name), Parent, nowUs(), threadCpuUs(),
                      std::move(P)};
  return Id;
}

void JsonlTraceSink::endSpan(uint64_t Id) {
  if (Id == 0)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Open.find(Id);
  if (It == Open.end())
    return;
  const OpenSpan &S = It->second;
  uint64_t End = nowUs();
  uint64_t Cpu = threadCpuUs();
  std::ostringstream Line;
  Line << "{\"t\":\"span\",\"seq\":" << ++Seq << ",\"id\":" << Id
       << ",\"parent\":" << S.Parent << ",\"name\":\"" << jsonEscape(S.Name)
       << "\",\"ts_us\":" << S.StartTsUs
       << ",\"wall_us\":" << (End >= S.StartTsUs ? End - S.StartTsUs : 0)
       << ",\"cpu_us\":" << (Cpu >= S.StartCpuUs ? Cpu - S.StartCpuUs : 0)
       << S.P.rendered() << "}\n";
  OS << Line.str();
  ++Emitted;
  Open.erase(It);
}

void JsonlTraceSink::event(std::string_view Name, uint64_t Span, Payload P) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ostringstream Line;
  Line << "{\"t\":\"event\",\"seq\":" << ++Seq << ",\"span\":" << Span
       << ",\"name\":\"" << jsonEscape(Name) << "\",\"ts_us\":" << nowUs()
       << P.rendered() << "}\n";
  OS << Line.str();
  ++Emitted;
}
