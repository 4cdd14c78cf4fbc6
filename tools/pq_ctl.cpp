// pq_ctl — command-line client for a running pq_serve daemon.
//
// Usage:
//   pq_ctl <query-sock> windows <port> <t1_ns> <t2_ns> [--top K]
//   pq_ctl <query-sock> monitor <port> <t_ns>
//   pq_ctl <query-sock> ping
//   pq_ctl <metrics-sock> metrics
//
// Queries ride control::QueryClient — idempotent request IDs, retries with
// capped backoff, CRC-verified responses — over a unix-socket transport
// that reconnects per attempt (a daemon mid-restart just costs a retry).
// The windows/monitor output bodies come from control/answer_printer.h, so
// they are byte-identical to pq_query over the same data; only the first
// header line differs, so tests compare with `sed 1d` exactly like the
// golden archive test.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "control/answer_printer.h"
#include "control/query_client.h"
#include "serve/socket_server.h"

namespace {

/// One transport attempt = one connection: send the frame, read one back.
pq::control::QueryClient::Transport socket_transport(std::string path) {
  return [path](std::span<const std::uint8_t> request)
             -> std::vector<std::vector<std::uint8_t>> {
    const int fd = pq::serve::connect_unix(path);
    if (fd < 0) return {};
    std::vector<std::vector<std::uint8_t>> responses;
    std::vector<std::uint8_t> resp;
    if (pq::serve::send_frame(fd, request) &&
        pq::serve::recv_frame(fd, resp)) {
      responses.push_back(std::move(resp));
    }
    ::close(fd);
    return responses;
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pq;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: pq_ctl <query-sock> windows <port> <t1> <t2> "
                 "[--top K]\n"
                 "       pq_ctl <query-sock> monitor <port> <t>\n"
                 "       pq_ctl <query-sock> ping\n"
                 "       pq_ctl <metrics-sock> metrics\n");
    return 2;
  }
  const std::string sock = argv[1];
  const std::string mode = argv[2];

  if (mode == "metrics") {
    const std::string body = serve::fetch_text(sock, "");
    if (body.empty()) {
      std::fprintf(stderr, "cannot fetch metrics from %s\n", sock.c_str());
      return 1;
    }
    std::fwrite(body.data(), 1, body.size(), stdout);
    return 0;
  }

  control::QueryClient client(socket_transport(sock));

  if (mode == "ping") {
    // A deliberately malformed (empty) request: any live daemon answers it
    // with a decodable kMalformed reject — proof the query path is up
    // without touching any shard.
    const int fd = serve::connect_unix(sock);
    if (fd < 0) {
      std::fprintf(stderr, "no daemon at %s\n", sock.c_str());
      return 1;
    }
    std::vector<std::uint8_t> resp;
    const bool ok = serve::send_frame(fd, {}) && serve::recv_frame(fd, resp);
    ::close(fd);
    if (!ok || control::decode_response(resp).status !=
                   control::QueryStatus::kMalformed) {
      std::fprintf(stderr, "unexpected ping response from %s\n",
                   sock.c_str());
      return 1;
    }
    std::printf("pong: %s\n", sock.c_str());
    return 0;
  }

  if (argc < (mode == "monitor" ? 5 : 6)) {
    std::fprintf(stderr, "%s mode needs <port> and timestamp(s)\n",
                 mode.c_str());
    return 2;
  }
  control::QueryRequest req;
  req.port_prefix = static_cast<std::uint32_t>(std::atoi(argv[3]));
  req.t1 = static_cast<Timestamp>(std::atoll(argv[4]));
  if (mode == "windows") {
    req.type = control::QueryType::kTimeWindows;
    req.t2 = static_cast<Timestamp>(std::atoll(argv[5]));
  } else if (mode == "monitor") {
    req.type = control::QueryType::kQueueMonitor;
    req.t2 = req.t1;
  } else {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  std::size_t top = 10;
  for (int i = 4; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0) {
      top = static_cast<std::size_t>(std::atoi(argv[i + 1]));
    }
  }

  const auto result = client.query(req);
  if (!result.delivered) {
    std::fprintf(stderr, "no verified response from %s after %u attempt(s)\n",
                 sock.c_str(), result.attempts);
    return 1;
  }
  const control::QueryResponse& resp = result.response;
  if (resp.status == control::QueryStatus::kMalformed ||
      resp.status == control::QueryStatus::kUnknownType) {
    std::fprintf(stderr, "daemon rejected the query (status %u)\n",
                 static_cast<unsigned>(resp.status));
    return 1;
  }

  std::printf("daemon %s: status=%s confidence=%.3f attempts=%u\n",
              sock.c_str(),
              resp.status == control::QueryStatus::kOk ? "ok" : "partial",
              resp.confidence, result.attempts);
  if (mode == "windows") {
    control::print_windows_answer(req.t1, req.t2, resp.counts, top);
  } else {
    control::print_monitor_answer(req.t1, resp.culprits);
  }
  return 0;
}
