// Copyright 2026 The obtree Authors.

#include "trace.h"

#include <cstdio>

namespace mapbench {

const char* SpanNameString(SpanName name) {
  static const char* const kNames[] = {
      "run",        "setup",    "window",   "Get",         "Upsert",
      "Insert",     "Erase",    "ScanLimit", "MultiGet",   "Checkpoint",
      "Recover",    "CompressNow", "Quiesce", "full_scan", "ValidateStructure",
      "Shape",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(SpanName::kCount));
  return kNames[static_cast<size_t>(name)];
}

Tracer::Tracer(int threads, size_t cap) : buffers_(static_cast<size_t>(threads)) {
  for (size_t i = 0; i < buffers_.size(); ++i) {
    buffers_[i].thread_ = static_cast<uint32_t>(i);
    buffers_[i].cap_ = cap;
    buffers_[i].spans_.reserve(cap);
  }
}

SpanId Tracer::Buffer::Record(SpanName name, uint64_t start_ns,
                              uint64_t end_ns, SpanId parent) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return kNoSpan;
  }
  spans_.push_back(Span{start_ns, end_ns, parent, name});
  return (thread_ << 24) | static_cast<SpanId>(spans_.size() - 1);
}

SpanId Tracer::Buffer::Open(SpanName name, uint64_t start_ns, SpanId parent) {
  return Record(name, start_ns, start_ns, parent);
}

void Tracer::Buffer::Close(SpanId id, uint64_t end_ns) {
  if (id == kNoSpan) return;
  spans_[id & 0xffffffu].end_ns = end_ns;
}

uint64_t Tracer::TotalSpans() const {
  uint64_t n = 0;
  for (const Buffer& b : buffers_) n += b.spans_.size();
  return n;
}

uint64_t Tracer::TotalDropped() const {
  uint64_t n = 0;
  for (const Buffer& b : buffers_) n += b.dropped_;
  return n;
}

bool Tracer::WriteCsv(const std::string& path,
                      const std::string& workload) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const Buffer& b : buffers_) {
    for (const Buffer::Span& s : b.spans_) {
      if (s.start_ns < origin) origin = s.start_ns;
    }
  }
  std::fprintf(f, "id,parent,name,workload,thread,start_ns,end_ns\n");
  for (const Buffer& b : buffers_) {
    for (size_t i = 0; i < b.spans_.size(); ++i) {
      const Buffer::Span& s = b.spans_[i];
      const SpanId id = (b.thread_ << 24) | static_cast<SpanId>(i);
      if (s.parent == kNoSpan) {
        std::fprintf(f, "%u,,%s,%s,%u,%llu,%llu\n", id,
                     SpanNameString(s.name), workload.c_str(), b.thread_,
                     static_cast<unsigned long long>(s.start_ns - origin),
                     static_cast<unsigned long long>(s.end_ns - origin));
      } else {
        std::fprintf(f, "%u,%u,%s,%s,%u,%llu,%llu\n", id, s.parent,
                     SpanNameString(s.name), workload.c_str(), b.thread_,
                     static_cast<unsigned long long>(s.start_ns - origin),
                     static_cast<unsigned long long>(s.end_ns - origin));
      }
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace mapbench
