#include "net/metrics.hpp"

#include "obs/export.hpp"

namespace psw::net {

void NetMetrics::export_to(obs::MetricSink& s) const {
  s.begin("connections");
  s.counter("accepted", "Connections accepted", connections_accepted.load());
  s.counter("closed", "Connections closed", connections_closed.load());
  s.counter("rejected", "Refused at max_connections", connections_rejected.load());
  s.counter("idle_timeouts", "Connections closed idle", idle_timeouts.load());
  s.counter("protocol_errors", "Framing/decode failures", protocol_errors.load());
  s.end();
  s.begin("traffic");
  s.counter("requests_received", "One-shot render requests", requests_received.load());
  s.counter("streams_opened", "Streams opened", streams_opened.load());
  s.counter("streams_completed", "Streams completed", streams_completed.load());
  s.counter("errors_sent", "kError replies", errors_sent.load());
  s.counter("bytes_in", "Bytes received", bytes_in.load());
  s.counter("bytes_out", "Bytes sent", bytes_out.load());
  s.end();
  s.begin("frames");
  s.counter("sent", "Frames delivered", frames_sent.load());
  s.counter("dropped", "Frames shed by backpressure", frames_dropped.load());
  s.counter("orphaned_completions", "Completions whose connection was gone",
            orphaned_completions.load());
  s.counter("raw_bytes", "Raw RGBA bytes of sent frames", frame_raw_bytes.load());
  s.counter("wire_bytes", "Encoded blob bytes sent", frame_wire_bytes.load());
  s.gauge("wire_ratio", "Wire bytes per raw byte of sent frames", wire_ratio());
  s.end();
}

}  // namespace psw::net
