/// \file
/// The networked admission front end: an epoll-based, non-blocking TCP
/// server that speaks the admission wire protocol (net/protocol.hpp) in
/// front of an AdmissionGateway. The server runs N shared-nothing event
/// loops (AdmissionServerConfig::loops); each loop owns its own epoll set,
/// eventfd, connections, reply slots and outbox, so loops never contend on
/// shared state. Connections are partitioned across loops at accept time
/// by round-robin handoff from a single acceptor on loop 0. Every SUBMIT
/// takes one reply slot on its loop, and the slot's token travels through
/// the gateway as the job's route_ctx, so each decision goes straight back
/// to the submission that asked for it — never to another connection that
/// reused the job id. DECISION frames are coalesced per wake-up and
/// flushed with writev; the decision hot path takes one lock (the loop's
/// outbox) and never blocks on a socket.
///
/// Contract: every SUBMIT is answered by exactly one DECISION (the shard's
/// scheduler rendered accept/reject — with the committed machine and start
/// on accept) or one REJECT (shed before any scheduler saw the job: queue
/// full, gateway closed, or retry-after backoff when every shard is down).
/// SUBMIT_BATCH is answered as if each job were submitted individually.
/// A DRAIN frame quiesces the gateway through the exact shutdown path the
/// in-process API uses (AdmissionGateway::finish(): close queues, join
/// consumers, final metrics publish) and answers with a DRAINED frame
/// whose counters equal the returned GatewayResult's merged metrics.
///
/// The same port also answers plain-text HTTP: a connection whose first
/// bytes are "GET " is served the Prometheus exposition page
/// (service/metrics_exporter.hpp) with HTTP/1.0 semantics and closed.
/// After a drain the page keeps serving the final counters, so scrapers
/// observe exactly the numbers the DRAINED frame reported.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "service/gateway.hpp"

namespace slacksched::net {

/// Deployment shape of the network front end.
struct AdmissionServerConfig {
  /// IPv4 address to bind; loopback by default (tests and benches).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  std::uint16_t port = 0;
  int backlog = 128;
  /// Number of shared-nothing event loops. Each loop owns its own epoll
  /// set, connections, reply slots and outbox; a connection lives on
  /// one loop for its whole life. 1 reproduces the original single-loop
  /// server exactly.
  int loops = 1;
  /// Cap on a buffered HTTP request head; longer requests are closed.
  std::size_t max_http_request = 8192;
  /// Close a connection once this long has passed without traffic in
  /// either direction (reads, or bytes queued/flushed toward the peer).
  /// Zero disables reaping — the pre-reaper behavior, where an abandoned
  /// connection holds its fd until the peer resets or the server shuts
  /// down. Reaped closes are counted in connections_reaped(). Connections
  /// owed a DECISION are exempt: one-answer-per-SUBMIT outlives any idle
  /// deadline (δ-commitment decisions legitimately defer past τ_j).
  std::chrono::milliseconds idle_timeout{0};
  /// How often each event loop wakes to scan for idle connections when
  /// idle_timeout is enabled; bounds how far past its deadline a
  /// connection can linger. Ignored (the loop blocks indefinitely) when
  /// idle_timeout is zero.
  std::chrono::milliseconds reap_interval{1000};
  /// How long a loop keeps its listener disarmed after accept4 failed for
  /// lack of resources (EMFILE/ENFILE/ENOBUFS/ENOMEM). Without the pause
  /// a level-triggered listener would hot-spin: the backlog keeps the fd
  /// readable while every accept keeps failing.
  std::chrono::milliseconds accept_backoff{100};
  /// The gateway behind the listener. Validated before anything binds:
  /// the constructor throws a PreconditionError naming every problem
  /// GatewayConfig::validate() reports, and the server never starts.
  GatewayConfig gateway;

  /// Checks every server knob (and the nested gateway config, whose
  /// problems are prefixed "gateway: "). Returns one human-readable
  /// message per problem; empty means valid. The constructor throws a
  /// PreconditionError listing every message before any socket exists.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// The server. Construction binds, listens, builds the gateway (wiring
/// its on_decision hook to the response path) and spawns the event-loop
/// threads; the listeners are accepting before the constructor returns.
class AdmissionServer {
 public:
  AdmissionServer(const AdmissionServerConfig& config,
                  const ShardSchedulerFactory& factory);

  /// Stops the loops and finishes the gateway if no DRAIN ever did.
  ~AdmissionServer();

  AdmissionServer(const AdmissionServer&) = delete;
  AdmissionServer& operator=(const AdmissionServer&) = delete;

  /// The bound TCP port (the actual one when config.port was 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// True once a DRAIN frame (or shutdown()) quiesced the gateway.
  [[nodiscard]] bool drained() const {
    return drained_.load(std::memory_order_acquire);
  }

  /// Stops accepting, closes every connection, joins the event loops, and
  /// returns the gateway's final result (draining it first if no client
  /// ever sent DRAIN). Idempotent; the destructor calls it.
  GatewayResult shutdown();

  /// Live gateway access (metrics snapshots, supervisor) for embedding
  /// processes; network clients use the protocol instead. The server owns
  /// the gateway's route_ctx space: an embedder that submits directly
  /// must pass the default route_ctx 0, whose decision no connection is
  /// owed.
  [[nodiscard]] AdmissionGateway& gateway() { return *gateway_; }

  /// Connections closed by the idle reaper since the server started
  /// (exported as slacksched_connections_reaped_total on /metrics).
  [[nodiscard]] std::uint64_t connections_reaped() const {
    return connections_reaped_.load(std::memory_order_relaxed);
  }

  /// accept4 failures since the server started (exported as
  /// slacksched_accept_errors_total on /metrics). Resource exhaustion
  /// (EMFILE/ENFILE/ENOBUFS/ENOMEM) additionally disarms the failing
  /// loop's listener for accept_backoff.
  [[nodiscard]] std::uint64_t accept_errors() const {
    return accept_errors_.load(std::memory_order_relaxed);
  }

  /// The configured loop count.
  [[nodiscard]] int loops() const { return config_.loops; }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameDecoder decoder;
    /// Bytes queued for the socket; drained on EPOLLOUT.
    std::vector<char> write_buffer;
    std::size_t write_pos = 0;
    /// -1 until sniffed; 1 = HTTP ("GET " prefix), 0 = binary protocol.
    int is_http = -1;
    std::string http_request;
    bool close_after_flush = false;
    /// Set on a fatal socket error mid-handling; the loop closes the
    /// connection at the next safe point instead of mid-callback.
    bool dead = false;
    /// Last observed traffic (accept, readable bytes, or queued output);
    /// the reaper compares this against idle_timeout.
    std::chrono::steady_clock::time_point last_activity{};
    /// DECISIONs owed: enqueued submissions whose answer has not been
    /// handed to the socket yet. The reaper spares a connection while this
    /// is nonzero. Loop-thread-only, like every transition of it.
    std::uint32_t owed = 0;
  };

  /// Where one enqueued submission's DECISION goes. The loop writes it
  /// before the submit; the shard thread that renders the decision only
  /// reads it, ordered after that write by the shard queue's
  /// release/acquire hand-off; the loop frees it after draining the
  /// DECISION from the outbox.
  struct ReplySlot {
    std::uint64_t conn_id = 0;  ///< 0 while free (connection ids start at 2)
    std::uint64_t request_id = 0;
    JobId job_id = 0;
  };

  /// One loop's reply slots: fixed-size chunks behind a fixed outer array,
  /// allocated on first use and never moved or freed while the loop lives,
  /// so shard threads can read a slot while the loop allocates more. All
  /// members are loop-thread-only apart from those slot reads.
  class ReplySlots {
   public:
    static constexpr std::size_t kChunkSlots = 4096;
    static constexpr std::size_t kMaxChunks = 1024;

    /// True when `n` more slots can be taken. A loop with
    /// kChunkSlots * kMaxChunks submissions in flight sheds new ones as
    /// queue-full.
    [[nodiscard]] bool can_take(std::size_t n) const {
      return free_.size() + (kMaxChunks - chunks_used_) * kChunkSlots >= n;
    }
    /// Takes a free slot; requires can_take(1).
    std::uint32_t take();
    /// Marks `slot` free again.
    void release(std::uint32_t slot);
    [[nodiscard]] ReplySlot& operator[](std::uint32_t slot) {
      return chunks_[slot / kChunkSlots][slot % kChunkSlots];
    }
    /// Slots allocated so far (live or free).
    [[nodiscard]] std::size_t allocated() const {
      return chunks_used_ * kChunkSlots;
    }
    [[nodiscard]] std::size_t live() const { return live_; }

   private:
    std::array<std::unique_ptr<ReplySlot[]>, kMaxChunks> chunks_;
    std::size_t chunks_used_ = 0;
    std::size_t live_ = 0;
    std::vector<std::uint32_t> free_;
  };

  /// Encoded server->client frames staged for one drain: one contiguous
  /// byte arena plus (connection, reply slot, offset, length) entries into
  /// it. Shard threads encode DECISIONs directly into the arena under the
  /// outbox lock — no per-decision allocation — and the loop flushes each
  /// connection's run of entries with a single writev, then frees the
  /// entries' slots.
  struct Outbox {
    struct Entry {
      std::uint64_t conn_id = 0;
      std::uint32_t slot = 0;
      std::uint32_t offset = 0;
      std::uint32_t length = 0;
    };
    std::vector<char> bytes;
    std::vector<Entry> entries;

    [[nodiscard]] bool empty() const { return entries.empty(); }
    void clear() {
      bytes.clear();
      entries.clear();
    }
  };

  /// One shared-nothing event loop: epoll set, wake eventfd, the listener
  /// (loop 0 only), the connections it owns, and the reply-path
  /// state shard threads hand decisions to. Everything without a mutex is
  /// loop-thread-only, except that shard threads read live reply slots.
  struct EventLoop {
    int index = 0;
    int epoll_fd = -1;
    int event_fd = -1;  ///< wakes the loop: outbox, handoff, shutdown
    /// The listener on loop 0, -1 elsewhere.
    int listen_fd = -1;
    std::thread thread;

    // --- loop-thread-only state ---
    std::uint64_t next_conn_id = 0;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
        connections;
    /// Listener backoff after resource-exhausted accepts: disarmed in
    /// epoll until rearm_at.
    bool listener_armed = true;
    std::chrono::steady_clock::time_point rearm_at{};
    /// SUBMIT_BATCH decode target, reused across frames (the decoded span
    /// is handed straight to AdmissionGateway::submit_batch), and the
    /// batch's per-job slot tokens and outcomes.
    std::vector<Job> batch_scratch;
    std::vector<std::uint64_t> token_scratch;
    std::vector<Outcome> status_scratch;
    /// Double buffer the drain swaps the outbox into, and the iovec list
    /// built over it; both reused across drains.
    Outbox staged;
    std::vector<char> reply_scratch;

    // --- shared with shard consumer threads ---
    /// Written and freed by this loop; shard threads read live slots
    /// without a lock (see ReplySlot).
    ReplySlots slots;
    /// The only lock on the decision path; only decisions for this loop's
    /// connections contend on it.
    std::mutex outbox_mutex;
    Outbox outbox;

    // --- shared with the acceptor loop ---
    std::mutex handoff_mutex;
    std::vector<int> handoff;
  };

  /// The gateway's on_decision hook target: reads the reply slot named
  /// by route_ctx (a slot token, see slot_token) and encodes the DECISION
  /// straight into the owning loop's outbox. Contexts below the loop count
  /// name no slot and are ignored. Runs on shard consumer threads.
  void on_gateway_decision(const Job& job, const Decision& decision,
                           std::uint64_t route_ctx);

  void event_loop(EventLoop& loop);
  void accept_ready(EventLoop& loop);
  /// Registers a freshly accepted socket with `loop`'s epoll set.
  void adopt_connection(EventLoop& loop, int fd);
  void disarm_listener(EventLoop& loop);
  void rearm_listener(EventLoop& loop);
  void wake_loop(EventLoop& loop);
  void read_ready(EventLoop& loop, Connection& conn);
  void write_ready(EventLoop& loop, Connection& conn);
  void handle_frame(EventLoop& loop, Connection& conn, const Frame& frame);
  /// Answers a SUBMIT (a one-job batch) or a SUBMIT_BATCH: takes a reply
  /// slot per job, submits them with one gateway call and answers the
  /// synchronously shed ones at once.
  void handle_submit(EventLoop& loop, Connection& conn,
                     std::uint64_t base_request_id, std::span<const Job> jobs);
  /// Takes a reply slot for one submission of `conn` and returns the
  /// token to submit it with; requires loop.slots.can_take(1).
  std::uint64_t open_slot(EventLoop& loop, Connection& conn,
                          std::uint64_t request_id, JobId job_id);
  /// Gives back the slot behind `token` of a submission the gateway shed
  /// synchronously: no decision will come for it.
  void close_slot(EventLoop& loop, Connection& conn, std::uint64_t token);
  /// The route_ctx naming `slot` on `loop`: (slot + 1) * loops + index, so
  /// the owning loop is token mod loops and tokens below the loop count
  /// (an embedder's default 0) name no slot.
  [[nodiscard]] std::uint64_t slot_token(const EventLoop& loop,
                                         std::uint32_t slot) const {
    return (static_cast<std::uint64_t>(slot) + 1) * loops_.size() +
           static_cast<std::uint64_t>(loop.index);
  }
  /// The slot a token names on its loop; requires token >= loops.
  [[nodiscard]] std::uint32_t token_slot(std::uint64_t token) const {
    return static_cast<std::uint32_t>(token / loops_.size() - 1);
  }
  void handle_drain(EventLoop& loop, Connection& conn);
  void handle_http(EventLoop& loop, Connection& conn);
  /// Appends bytes to the connection's write buffer and flushes what the
  /// socket will take now; arms EPOLLOUT for the rest.
  void queue_bytes(EventLoop& loop, Connection& conn, const char* data,
                   std::size_t n);
  void queue_frame(EventLoop& loop, Connection& conn,
                   const std::vector<char>& bytes) {
    queue_bytes(loop, conn, bytes.data(), bytes.size());
  }
  void send_protocol_error(EventLoop& loop, Connection& conn,
                           const std::string& message);
  void flush(Connection& conn);
  void update_epoll(EventLoop& loop, Connection& conn);
  void close_connection(EventLoop& loop, std::uint64_t conn_id);
  /// Closes every connection on `loop` whose last_activity is older than
  /// idle_timeout and which is owed no DECISION (Connection::owed). Called
  /// from the loop on its reap_interval tick.
  void reap_idle(EventLoop& loop, std::chrono::steady_clock::time_point now);
  /// Moves decision frames queued by shard threads into write buffers,
  /// coalescing each connection's run into one writev, and frees their
  /// reply slots.
  void drain_outbox(EventLoop& loop);
  /// Hands `loop.staged` entries [first, last) — all for `conn` — to the
  /// connection, by direct writev when its buffer is empty.
  void deliver_staged(EventLoop& loop, Connection& conn, std::size_t first,
                      std::size_t last);
  /// Answers every still-live reply slot on `loop` with REJECT closed and
  /// frees it (used once the gateway has drained: those decisions will
  /// never be rendered). Requires the outbox drained after the gateway
  /// finished, so no live slot has a DECISION still staged.
  void reject_loop_pending(EventLoop& loop);
  /// Runs gateway finish() once and caches the result.
  void finish_gateway();
  RejectMsg make_reject(std::uint64_t request_id, JobId job_id,
                        Outcome outcome) const;

  AdmissionServerConfig config_;
  std::unique_ptr<AdmissionGateway> gateway_;
  std::uint16_t port_ = 0;
  /// Loop 0's round-robin cursor over the loops.
  std::uint64_t handoff_cursor_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> shutdown_done_{false};
  std::atomic<std::uint64_t> connections_reaped_{0};
  std::atomic<std::uint64_t> accept_errors_{0};

  /// Serializes gateway finish() across loop threads racing a DRAIN.
  std::mutex finish_mutex_;
  std::mutex result_mutex_;
  GatewayResult result_;  ///< valid once drained_
};

}  // namespace slacksched::net
