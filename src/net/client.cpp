#include "net/client.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace psw::net {

namespace {

void set_error(std::string* error, std::string what) {
  if (error) *error = std::move(what);
}

}  // namespace

template <typename Msg>
bool NetClient::send_msg(MsgType type, const Msg& msg, std::string* error) {
  PooledBuffer payload = pool_.acquire(msg.encoded_size());
  msg.encode(&payload.vec());
  return send_msg(type, std::move(payload), error);
}

bool NetClient::connect(const std::string& host, uint16_t port, std::string* error) {
  close();
  connect_status_ = ConnectStatus::kError;
  connect_attempts_ = 0;
  int backoff_ms = options_.connect_backoff_ms > 0 ? options_.connect_backoff_ms : 1;
  for (int attempt = 0;; ++attempt) {
    ++connect_attempts_;
    int connect_errno = 0;
    UniqueFd fd =
        tcp_connect(host, port, error, options_.recv_buffer_bytes, &connect_errno);
    if (fd.valid()) {
      link_ = Transport(std::move(fd));
      break;
    }
    if (!retryable_connect_errno(connect_errno)) return false;
    if (attempt >= options_.connect_retries) {
      connect_status_ = ConnectStatus::kUnavailable;
      set_error(error, "connect to " + host + ":" + std::to_string(port) +
                           ": unavailable after " +
                           std::to_string(connect_attempts_) + " attempt(s): " +
                           (error ? *error : std::string()));
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms *= 2;
  }
  if (options_.recv_timeout_ms > 0) {
    set_recv_timeout_ms(link_.fd(), options_.recv_timeout_ms);
  }

  const HelloMsg hello{kProtocolVersion, "pswvr-netclient"};
  if (!send_msg(MsgType::kHello, hello, error)) return false;

  WireView msg;
  if (!recv_msg(&msg, error)) return false;
  HelloMsg ack;
  if (msg.type != MsgType::kHelloAck || !HelloMsg::decode(msg.payload, &ack)) {
    set_error(error, "handshake failed: unexpected reply");
    close();
    return false;
  }
  server_name_ = ack.name;
  connect_status_ = ConnectStatus::kOk;
  return true;
}

void NetClient::close() {
  link_.reset();
  server_name_.clear();
  stream_decoders_.clear();
  session_decoders_.clear();
  request_sessions_.clear();
}

bool NetClient::render(const RenderRequestMsg& request, ImageU8* image,
                       FrameMsg* meta, std::string* error) {
  if (!send_msg(MsgType::kRenderRequest, request, error)) return false;
  request_sessions_[request.request_id] = request.session_id;

  for (;;) {
    Event event;
    if (!next_event(&event, error)) return false;
    switch (event.kind) {
      case Event::Kind::kFrame:
        if (event.frame.request_id != request.request_id) continue;
        if (image) *image = std::move(event.image);
        if (meta) *meta = event.frame;
        return true;
      case Event::Kind::kError:
        if (event.error.request_id != 0 &&
            event.error.request_id != request.request_id) {
          continue;
        }
        set_error(error, "server error (" +
                             std::to_string(event.error.status) +
                             "): " + event.error.message);
        return false;
      case Event::Kind::kStreamEnd:
        continue;  // not ours; a concurrent stream finishing is fine
    }
  }
}

bool NetClient::open_stream(const StreamRequestMsg& request, std::string* error) {
  if (!send_msg(MsgType::kStreamRequest, request, error)) return false;
  stream_decoders_[request.stream_id].reset();
  return true;
}

bool NetClient::next_event(Event* out, std::string* error) {
  WireView msg;
  if (!recv_msg(&msg, error)) return false;
  return decode_event(msg, out, error);
}

bool NetClient::decode_event(const WireView& msg, Event* out, std::string* error) {
  switch (msg.type) {
    case MsgType::kFrame: {
      FrameMsg& frame = out->frame;
      if (!FrameMsg::decode(msg.payload, &frame)) {
        set_error(error, "malformed frame message");
        return false;
      }
      FrameDecoder& decoder =
          frame.stream_id != 0
              ? stream_decoders_[frame.stream_id]
              : session_decoders_[request_sessions_.count(frame.request_id)
                                      ? request_sessions_[frame.request_id]
                                      : 0];
      out->kind = Event::Kind::kFrame;
      const CodecStatus status =
          decoder.decode(frame.encoded, &out->image);
      if (status != CodecStatus::kOk) {
        set_error(error, std::string("frame decode failed: ") + to_string(status));
        return false;
      }
      frame.encoded.clear();
      return true;
    }
    case MsgType::kStreamEnd:
      if (!StreamEndMsg::decode(msg.payload, &out->end)) {
        set_error(error, "malformed stream-end message");
        return false;
      }
      stream_decoders_.erase(out->end.stream_id);
      out->kind = Event::Kind::kStreamEnd;
      return true;
    case MsgType::kError:
      if (!ErrorMsg::decode(msg.payload, &out->error)) {
        set_error(error, "malformed error message");
        return false;
      }
      out->kind = Event::Kind::kError;
      return true;
    default:
      set_error(error, std::string("unexpected message: ") + to_string(msg.type));
      return false;
  }
}

bool NetClient::fetch_metrics(std::string* json, std::string* error,
                              uint8_t selector) {
  PooledBuffer payload = pool_.acquire(1);
  // The JSON default stays an empty payload so pre-selector servers (and
  // the router's probe contract) see unchanged bytes.
  if (selector != kMetricsSelectorJson) payload.vec().push_back(selector);
  if (!send_msg(MsgType::kMetricsRequest, std::move(payload), error)) return false;
  // Frames from concurrent streams may be interleaved ahead of the reply;
  // skip them (their decoders still see every frame, keeping deltas valid).
  for (;;) {
    WireView msg;
    if (!recv_msg(&msg, error)) return false;
    if (msg.type == MsgType::kMetricsReply) {
      MetricsReplyMsg reply;
      if (!MetricsReplyMsg::decode(msg.payload, &reply)) {
        set_error(error, "malformed metrics reply");
        return false;
      }
      if (json) *json = std::move(reply.json);
      return true;
    }
    Event event;
    if (!decode_event(msg, &event, error)) return false;
  }
}

bool NetClient::send_bye(std::string* error) {
  return send_msg(MsgType::kBye, PooledBuffer(), error);
}

bool NetClient::send_msg(MsgType type, PooledBuffer&& payload, std::string* error) {
  if (!link_.open()) {
    set_error(error, "not connected");
    return false;
  }
  link_.send(type, std::move(payload));
  if (link_.flush(&bytes_sent_) != IoStatus::kOk) {
    set_error(error, std::string("send: ") + std::strerror(errno));
    close();
    return false;
  }
  return true;
}

bool NetClient::recv_msg(WireView* msg, std::string* error) {
  if (!link_.open()) {
    set_error(error, "not connected");
    return false;
  }
  for (;;) {
    const WireStatus status = link_.next(msg);
    if (status == WireStatus::kOk) return true;
    if (status != WireStatus::kNeedMore) {
      set_error(error, std::string("wire error: ") + to_string(status));
      close();
      return false;
    }
    const IoStatus io = link_.receive(&bytes_received_);
    if (io == IoStatus::kOk) continue;
    if (io == IoStatus::kWouldBlock) {
      set_error(error, "receive timeout");
    } else {
      set_error(error, errno == 0 ? "connection closed by server"
                                  : std::string("recv: ") + std::strerror(errno));
    }
    close();
    return false;
  }
}

}  // namespace psw::net
