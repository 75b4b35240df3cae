#include "net/metrics.hpp"

#include "util/json.hpp"

namespace psw::net {

void NetMetrics::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("connections").begin_object()
      .field("accepted", connections_accepted.load())
      .field("closed", connections_closed.load())
      .field("rejected", connections_rejected.load())
      .field("idle_timeouts", idle_timeouts.load())
      .field("protocol_errors", protocol_errors.load())
      .end_object();
  w.key("traffic").begin_object()
      .field("requests_received", requests_received.load())
      .field("streams_opened", streams_opened.load())
      .field("streams_completed", streams_completed.load())
      .field("errors_sent", errors_sent.load())
      .field("bytes_in", bytes_in.load())
      .field("bytes_out", bytes_out.load())
      .end_object();
  w.key("frames").begin_object()
      .field("sent", frames_sent.load())
      .field("dropped", frames_dropped.load())
      .field("orphaned_completions", orphaned_completions.load())
      .field("raw_bytes", frame_raw_bytes.load())
      .field("wire_bytes", frame_wire_bytes.load())
      .field("wire_ratio", wire_ratio())
      .field("copy_bytes", frame_copy_bytes.load())
      .field("bytes_copied_per_frame", bytes_copied_per_frame())
      .end_object();
  w.end_object();
}

}  // namespace psw::net
