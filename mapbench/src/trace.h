// Copyright 2026 The obtree Authors.
//
// In-memory span recorder of the traced run. Each thread appends to its
// own buffer (no sharing on the hot path); the spans are written out as
// CSV when the run ends.

#ifndef MAPBENCH_TRACE_H_
#define MAPBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mapbench {

enum class SpanName : uint16_t {
  kRun,
  kSetup,
  kWindow,
  kGet,
  kUpsert,
  kInsert,
  kErase,
  kScanLimit,
  kMultiGet,
  kCheckpoint,
  kRecover,
  kCompressNow,
  kQuiesce,
  kFullScan,
  kValidate,
  kShape,
  kCount,
};

const char* SpanNameString(SpanName name);

/// Identifier of a span: the recording thread in the top byte, the index
/// in that thread's buffer below. 0xffffffff means "no parent".
using SpanId = uint32_t;
inline constexpr SpanId kNoSpan = 0xffffffffu;

class Tracer {
 public:
  /// `threads` buffers, each holding at most `cap` spans.
  Tracer(int threads, size_t cap);

  class Buffer {
   public:
    /// Records a finished span; returns its id (kNoSpan once full).
    SpanId Record(SpanName name, uint64_t start_ns, uint64_t end_ns,
                  SpanId parent);
    /// Opens a span whose end is not known yet; Close sets it.
    SpanId Open(SpanName name, uint64_t start_ns, SpanId parent);
    void Close(SpanId id, uint64_t end_ns);

   private:
    friend class Tracer;
    struct Span {
      uint64_t start_ns;
      uint64_t end_ns;
      SpanId parent;
      SpanName name;
    };
    uint32_t thread_ = 0;
    size_t cap_ = 0;
    uint64_t dropped_ = 0;
    std::vector<Span> spans_;
  };

  Buffer* thread(int i) { return &buffers_[static_cast<size_t>(i)]; }

  /// Writes every span as `id,parent,name,workload,thread,start_ns,end_ns`
  /// (times relative to the earliest span). Returns false on an I/O error.
  bool WriteCsv(const std::string& path, const std::string& workload) const;
  uint64_t TotalSpans() const;
  uint64_t TotalDropped() const;

 private:
  std::vector<Buffer> buffers_;
};

}  // namespace mapbench

#endif  // MAPBENCH_TRACE_H_
