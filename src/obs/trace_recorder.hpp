// TraceRecorder: serializes every trace event of a simulated execution.
//
// Two export formats:
//  * JSONL — one JSON object per event, one per line, in emission order with
//    simulated timestamps. Byte-deterministic (same seed => same file), so
//    divergent seeds can be diffed post-mortem with plain `diff`, and
//    read_jsonl() parses a file back into spec::Events for replay analysis.
//  * Chrome trace (chrome://tracing / https://ui.perfetto.dev) — each process
//    is rendered as its own track with three lanes: the membership round
//    (MBRSHP.start_change -> MBRSHP.view), the view change a.k.a. VS round
//    (first start_change -> GCS.view), and the application blocking window
//    (GCS.block -> GCS.view), plus instant markers for sends/deliveries.
//    Opening a view-change timeline shows the paper's E1 claim directly: the
//    VS round OVERLAPS the membership round instead of following it.
//
// JSONL schema (`at` in simulated microseconds). Each record is derived from
// spec::Event's field list by obs/json_codec.hpp: "type" is the body's kType
// and the body's fields follow in declaration order.
//   {"at":N,"type":"gcs_send","p":P,"msg":{"sender":Q,"uid":U,"payload":S}}
//   {"at":N,"type":"gcs_deliver","p":P,"q":Q,"msg":{...}}
//   {"at":N,"type":"gcs_view","p":P,"view":V,"transitional":[P...]}
//   {"at":N,"type":"gcs_block","p":P} / {"at":N,"type":"gcs_block_ok","p":P}
//   {"at":N,"type":"mbr_start_change","p":P,"cid":C,"set":[P...]}
//   {"at":N,"type":"mbr_view","p":P,"view":V}
//   {"at":N,"type":"crash","p":P} / {"at":N,"type":"recover","p":P}
//   {"at":N,"type":"fault","kind":K,"detail":D}   (sim::FailureInjector)
// Causal span events (emitted only when TraceBus::lifecycle() is on):
//   {"at":N,"type":"msg_wire_send","p":P,"sender":Q,"uid":U}
//   {"at":N,"type":"msg_recv","p":P,"from":F,"sender":Q,"uid":U,"fwd":B}
//   {"at":N,"type":"msg_forward","p":P,"sender":Q,"uid":U,"copies":K}
//   {"at":N,"type":"sync_sent","p":P,"cid":C}
//   {"at":N,"type":"sync_recv","p":P,"from":F,"cid":C}
//   {"at":N,"type":"xport_retransmit","from_node":A,"to_node":B,"packets":K}
//   {"at":N,"type":"mbr_phase","node":X,"phase":S,"round":R}
// where V = {"epoch":E,"origin":O,"members":[P...],"start_id":{"P":C,...}}.
// read_jsonl() rejects a line that is not one JSON object, an unknown type,
// a missing member, a member of the wrong JSON type, an integer outside its
// field's range (a ProcessId is a uint32) and a start_id key that is not a
// decimal process id.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "spec/events.hpp"

namespace vsgc::obs {

class TraceRecorder : public spec::TraceSink {
 public:
  void on_event(const spec::Event& event) override {
    events_.push_back(event);
  }

  const std::vector<spec::Event>& events() const { return events_; }
  void clear() { events_.clear(); }

  void write_jsonl(std::ostream& os) const;
  /// Write a Chrome-trace/Perfetto JSON document of the recorded execution.
  void write_chrome_trace(std::ostream& os) const;

  /// Convenience: write both artifacts to files. Returns false on I/O error.
  bool write_jsonl_file(const std::string& path) const;
  bool write_chrome_trace_file(const std::string& path) const;

 private:
  std::vector<spec::Event> events_;
};

/// Parse a JSONL stream produced by write_jsonl back into events.
/// Returns false (and stops) on the first malformed line; never throws.
bool read_jsonl(std::istream& is, std::vector<spec::Event>* out);

void write_jsonl(const std::vector<spec::Event>& events, std::ostream& os);
void write_chrome_trace(const std::vector<spec::Event>& events,
                        std::ostream& os);

}  // namespace vsgc::obs
