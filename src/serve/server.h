#ifndef CONDTD_SERVE_SERVER_H_
#define CONDTD_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/status.h"
#include "serve/corpus.h"
#include "serve/registry.h"
#include "serve/wire.h"

namespace condtd {
namespace serve {

struct ServerOptions {
  /// Unix-domain listener path. When non-empty it is the listener;
  /// otherwise `tcp_port` must be >= 0.
  std::string unix_socket;
  /// TCP listener (loopback-bound): -1 = disabled, 0 = ephemeral port
  /// (read the bound port back with Server::port()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// HTTP listener for GET /metrics (Prometheus text format) and
  /// GET /healthz: -1 = disabled, 0 = ephemeral port (read it back with
  /// Server::http_port()). Shares the worker pool with the wire
  /// protocol.
  int http_port = -1;
  std::string http_host = "127.0.0.1";
  /// Connection-serving worker threads. Each connection is pinned to
  /// one worker for its lifetime; cross-corpus requests on different
  /// connections run concurrently.
  int workers = 4;
  /// Reject any ingested document longer than this, INLINE or PATH.
  /// Bounds the per-request allocation a client can force: oversized
  /// INLINE announcements are drained in fixed-size chunks, never
  /// buffered, and PATH files are refused on their size before any
  /// read.
  int64_t max_inline_bytes = int64_t{1} << 28;  // 256 MiB
  /// Evict a corpus idle for this many seconds (0 = never; durable
  /// registries only). See CorpusRegistry::Options.
  int64_t corpus_ttl_seconds = 0;
  /// Keep at most this many corpora open (0 = unbounded).
  int max_corpora = 0;
  /// Test seam for the eviction clock (CorpusRegistry::Options).
  std::function<int64_t()> clock_ns;
  /// Per-corpus configuration (inference options, data_dir durability,
  /// snapshot cadence, memory cap).
  Corpus::Options corpus;
};

/// The condtd serve daemon: a socket front-end over CorpusRegistry.
/// One accept thread feeds a worker pool; workers speak the wire
/// protocol (serve/wire.h) and route INGEST/QUERY/SNAPSHOT/STATS to
/// corpora, or answer the HTTP listener's /metrics and /healthz.
/// Lifecycle: Start() -> (clients) -> a SHUTDOWN command or
/// RequestStop() -> Wait() joins everything. In-process embedders
/// (tests, bench) call Start()/Stop() directly; the CLI wires this to
/// `condtd serve`.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners, recovers persisted corpora, spawns the
  /// accept thread plus workers, and starts the eviction sweeper.
  /// Returns without blocking.
  Status Start();

  /// Signals shutdown from any thread (including a worker handling
  /// SHUTDOWN): stops accepting, unblocks idle and mid-read workers.
  void RequestStop();

  /// Blocks until shutdown is requested, then joins all threads and
  /// releases the listeners. Call from the thread that owns the server.
  void Wait();

  /// RequestStop() + Wait().
  void Stop();

  /// The bound TCP port (after Start() with tcp_port >= 0).
  int port() const { return port_; }

  /// The bound HTTP port (after Start() with http_port >= 0).
  int http_port() const { return http_port_; }

  CorpusRegistry* registry() { return &registry_; }

 private:
  struct PendingConn {
    int fd = -1;
    bool http = false;
  };

  void AcceptLoop();
  void WorkerLoop(int worker_index);
  void ServeConnection(int fd, int worker_index);
  /// One HTTP exchange (GET /metrics | GET /healthz), then close.
  void ServeHttpConnection(int fd);
  /// Executes one request line (reading any inline payload through
  /// `reader`); returns the OK payload or the error to frame.
  Result<std::string> Handle(const std::string& line, WireReader* reader,
                             bool* shutdown);
  Result<std::string> HandleIngest(const std::vector<std::string>& tokens,
                                   const std::string& line,
                                   WireReader* reader);
  Result<std::string> HandleQuery(const std::vector<std::string>& tokens);
  Result<std::string> HandleSnapshot(const std::vector<std::string>& tokens);
  std::string RenderStats();

  ServerOptions options_;
  CorpusRegistry registry_;
  int listen_fd_ = -1;
  int port_ = -1;
  int http_listen_fd_ = -1;
  int http_port_ = -1;
  bool started_ = false;
  bool joined_ = false;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable stop_requested_cv_;
  std::deque<PendingConn> pending_conns_;
  std::vector<int> active_fds_;  ///< per-worker live connection (or -1)
  bool stopping_ = false;
};

}  // namespace serve
}  // namespace condtd

#endif  // CONDTD_SERVE_SERVER_H_
