#include "net/admission_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "common/expects.hpp"
#include "service/metrics_exporter.hpp"

namespace slacksched::net {

namespace {

/// Per-loop epoll user-data ids for the two non-connection descriptors.
/// Connection ids start at kFirstConnId and stride by the loop count, so
/// every id is globally unique and owned by exactly one loop.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kEventFdTag = 1;
constexpr std::uint64_t kFirstConnId = 2;

/// The event loop running on this thread (null off the loop threads): a
/// decision rendered run-to-completion inside a loop's own submit needs no
/// eventfd write, since that loop drains its outbox right after the pass.
thread_local const void* t_current_loop = nullptr;

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  // Pipelined request/response traffic; Nagle only adds latency here.
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Opens a bound, listening, non-blocking IPv4 socket.
int open_listener(const std::string& address, std::uint16_t port,
                  int backlog) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw NetError("bad bind address: " + address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind " + address + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("listen");
  }
  return fd;
}

}  // namespace

std::vector<std::string> AdmissionServerConfig::validate() const {
  std::vector<std::string> errors;
  if (bind_address.empty()) {
    errors.push_back("bind_address must not be empty");
  }
  if (backlog < 1) {
    errors.push_back("backlog must be >= 1 (got " + std::to_string(backlog) +
                     ")");
  }
  if (loops < 1) {
    errors.push_back("loops must be >= 1 (got " + std::to_string(loops) +
                     ")");
  }
  if (max_http_request < 64) {
    errors.push_back("max_http_request must be >= 64 bytes (got " +
                     std::to_string(max_http_request) +
                     "): no request line and headers fit below that");
  }
  if (idle_timeout.count() < 0) {
    errors.push_back("idle_timeout must be >= 0ms (got " +
                     std::to_string(idle_timeout.count()) +
                     "ms); 0 disables reaping");
  }
  if (idle_timeout.count() != 0 && reap_interval.count() < 1) {
    errors.push_back(
        "reap_interval must be >= 1ms when idle_timeout is enabled (got " +
        std::to_string(reap_interval.count()) +
        "ms): the reap scan would busy-loop");
  }
  if (accept_backoff.count() < 1) {
    errors.push_back("accept_backoff must be >= 1ms (got " +
                     std::to_string(accept_backoff.count()) +
                     "ms): a starved listener would hot-spin");
  }
  for (const std::string& problem : gateway.validate()) {
    errors.push_back("gateway: " + problem);
  }
  return errors;
}

AdmissionServer::AdmissionServer(const AdmissionServerConfig& config,
                                 const ShardSchedulerFactory& factory)
    : config_(config) {
  // Refuse to start on an invalid shape: report every problem in one
  // exception, before any socket exists.
  const std::vector<std::string> errors = config_.validate();
  if (!errors.empty()) {
    std::string joined =
        "AdmissionServer refused to start: invalid AdmissionServerConfig:";
    for (const std::string& e : errors) joined += "\n  - " + e;
    throw PreconditionError(joined);
  }

  const auto n_loops = static_cast<std::size_t>(config_.loops);
  loops_.reserve(n_loops);
  for (std::size_t i = 0; i < n_loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    EventLoop& loop = *loops_.back();
    loop.index = static_cast<int>(i);
    // Stride the id space by the loop count: ids stay globally unique, a
    // connection's owning loop is id mod loops, and every id clears the
    // reserved listener/eventfd tags.
    loop.next_conn_id = kFirstConnId * n_loops + i;
  }

  try {
    // Accept distribution: loop 0 owns the only listener and hands
    // accepted fds round-robin to the other loops.
    loops_[0]->listen_fd =
        open_listener(config_.bind_address, config_.port, config_.backlog);
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(loops_[0]->listen_fd,
                      reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
      throw_errno("getsockname");
    }
    port_ = ntohs(bound.sin_port);

    for (auto& loop_ptr : loops_) {
      EventLoop& loop = *loop_ptr;
      loop.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (loop.epoll_fd < 0) throw_errno("epoll_create1");
      loop.event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (loop.event_fd < 0) throw_errno("eventfd");
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kEventFdTag;
      if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.event_fd, &ev) !=
          0) {
        throw_errno("epoll_ctl(eventfd)");
      }
      if (loop.listen_fd >= 0) {
        ev.events = EPOLLIN;
        ev.data.u64 = kListenerTag;
        if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.listen_fd, &ev) !=
            0) {
          throw_errno("epoll_ctl(listener)");
        }
      }
    }

    // The gateway comes up after the response plumbing (eventfds, per-loop
    // outboxes) exists: its shard threads may invoke the decision hook as
    // soon as the first job is enqueued. A user-supplied hook is chained,
    // not replaced. route_ctx carries the submission's reply-slot token
    // from submit to decision.
    GatewayConfig gateway_config = config_.gateway;
    GatewayDecisionCallback user_hook = gateway_config.on_decision;
    gateway_config.on_decision =
        [this, user_hook = std::move(user_hook)](
            int shard, const Job& job, const Decision& decision,
            std::uint64_t route_ctx) {
          if (user_hook) user_hook(shard, job, decision, route_ctx);
          on_gateway_decision(job, decision, route_ctx);
        };
    gateway_ = std::make_unique<AdmissionGateway>(gateway_config, factory);

    for (auto& loop_ptr : loops_) {
      EventLoop& loop = *loop_ptr;
      loop.thread = std::thread([this, &loop] { event_loop(loop); });
    }
  } catch (...) {
    // Unwind half-built plumbing: join any loops already running, then
    // close every descriptor created so far.
    stop_.store(true, std::memory_order_release);
    for (auto& loop_ptr : loops_) {
      if (loop_ptr->event_fd >= 0) wake_loop(*loop_ptr);
    }
    for (auto& loop_ptr : loops_) {
      if (loop_ptr->thread.joinable()) loop_ptr->thread.join();
      if (loop_ptr->listen_fd >= 0) ::close(loop_ptr->listen_fd);
      if (loop_ptr->epoll_fd >= 0) ::close(loop_ptr->epoll_fd);
      if (loop_ptr->event_fd >= 0) ::close(loop_ptr->event_fd);
    }
    throw;
  }
}

AdmissionServer::~AdmissionServer() {
  try {
    (void)shutdown();
  } catch (...) {
    // Destructors must not throw; shutdown errors die here.
  }
}

GatewayResult AdmissionServer::shutdown() {
  if (!shutdown_done_.exchange(true, std::memory_order_acq_rel)) {
    stop_.store(true, std::memory_order_release);
    for (auto& loop_ptr : loops_) wake_loop(*loop_ptr);
    for (auto& loop_ptr : loops_) {
      if (loop_ptr->thread.joinable()) loop_ptr->thread.join();
    }
    if (!drained_.load(std::memory_order_acquire)) finish_gateway();
    for (auto& loop_ptr : loops_) {
      if (loop_ptr->listen_fd >= 0) ::close(loop_ptr->listen_fd);
      if (loop_ptr->epoll_fd >= 0) ::close(loop_ptr->epoll_fd);
      if (loop_ptr->event_fd >= 0) ::close(loop_ptr->event_fd);
      loop_ptr->listen_fd = loop_ptr->epoll_fd = loop_ptr->event_fd = -1;
    }
  }
  std::lock_guard lock(result_mutex_);
  return result_;
}

void AdmissionServer::finish_gateway() {
  // Loop threads can race a DRAIN each; exactly one runs finish(), the
  // others wait here and reuse the cached result.
  std::lock_guard finish_lock(finish_mutex_);
  if (drained_.load(std::memory_order_acquire)) return;
  GatewayResult result = gateway_->finish();
  {
    std::lock_guard lock(result_mutex_);
    result_ = std::move(result);
  }
  drained_.store(true, std::memory_order_release);
}

void AdmissionServer::wake_loop(EventLoop& loop) {
  std::uint64_t wake = 1;
  (void)::write(loop.event_fd, &wake, sizeof(wake));
}

void AdmissionServer::signal_loop(EventLoop& loop) {
  loop_wakeups_.fetch_add(1, std::memory_order_relaxed);
  wake_loop(loop);
}

void AdmissionServer::on_gateway_decision(const Job& job,
                                          const Decision& decision,
                                          std::uint64_t route_ctx) {
  // Tokens below the loop count name no slot: an embedding process that
  // calls gateway().submit() directly passes 0, and no connection is owed
  // that decision.
  if (route_ctx < loops_.size()) return;
  EventLoop& loop = *loops_[route_ctx % loops_.size()];
  const std::uint32_t slot = token_slot(route_ctx);
  // No lock: the loop wrote the slot before submitting (the shard queue's
  // release/acquire orders that write before this read) and frees it only
  // after drain_outbox has taken this entry from the outbox, under the
  // outbox lock. The owed count drops there too, on the loop thread, so a
  // reap tick can never see the connection un-owed while its DECISION is
  // still staged.
  const ReplySlot& reply = loop.slots[slot];
  DecisionMsg msg;
  msg.request_id = reply.request_id;
  msg.job_id = job.id;
  msg.outcome = decision.accepted ? Outcome::kAccepted : Outcome::kRejected;
  msg.machine = decision.accepted ? decision.machine : -1;
  msg.start = decision.accepted ? decision.start : 0.0;
  // Decided run-to-completion inside this loop's own submit: the loop
  // drains its outbox right after the pass, so no eventfd write.
  const bool on_loop = t_current_loop == &loop;
  if (on_loop) loop.self_staged = true;
  bool wake = false;
  {
    // Encode straight into the owning loop's outbox arena: no
    // per-decision allocation, and the eventfd is written only by the
    // append that found the outbox empty — consecutive decisions coalesce
    // into one wake-up and one writev per connection.
    std::lock_guard lock(loop.outbox_mutex);
    wake = !on_loop && loop.outbox.empty();
    const auto offset = static_cast<std::uint32_t>(loop.outbox.bytes.size());
    encode_decision(loop.outbox.bytes, msg);
    loop.outbox.entries.push_back(Outbox::Entry{
        reply.conn_id, slot, offset,
        static_cast<std::uint32_t>(loop.outbox.bytes.size() - offset)});
  }
  if (wake) signal_loop(loop);
}

std::uint32_t AdmissionServer::ReplySlots::take() {
  if (free_.empty()) {
    // can_take(1) guarantees a chunk is left. Push its slots in reverse so
    // the lowest index is taken first.
    chunks_[chunks_used_] = std::make_unique<ReplySlot[]>(kChunkSlots);
    const auto base = static_cast<std::uint32_t>(chunks_used_ * kChunkSlots);
    ++chunks_used_;
    free_.reserve(kChunkSlots);
    for (std::size_t i = kChunkSlots; i > 0; --i) {
      free_.push_back(base + static_cast<std::uint32_t>(i - 1));
    }
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  ++live_;
  return slot;
}

void AdmissionServer::ReplySlots::release(std::uint32_t slot) {
  (*this)[slot].conn_id = 0;
  free_.push_back(slot);
  --live_;
}

std::uint64_t AdmissionServer::open_slot(EventLoop& loop, Connection& conn,
                                         std::uint64_t request_id,
                                         JobId job_id) {
  const std::uint32_t slot = loop.slots.take();
  loop.slots[slot] = ReplySlot{conn.id, request_id, job_id};
  ++conn.owed;
  return slot_token(loop, slot);
}

void AdmissionServer::close_slot(EventLoop& loop, Connection& conn,
                                 std::uint64_t token) {
  loop.slots.release(token_slot(token));
  --conn.owed;
}

void AdmissionServer::event_loop(EventLoop& loop) {
  t_current_loop = &loop;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // With a reaper the wait becomes a tick (so idleness is noticed without
  // any descriptor firing); without one it blocks indefinitely, the
  // original zero-wakeup behavior. A disarmed listener shortens the wait
  // to its rearm deadline.
  const bool reaping = config_.idle_timeout.count() > 0;
  auto next_reap = std::chrono::steady_clock::now() + config_.reap_interval;
  while (!stop_.load(std::memory_order_acquire)) {
    int wait_ms =
        reaping ? static_cast<int>(config_.reap_interval.count()) : -1;
    if (!loop.listener_armed) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= loop.rearm_at) {
        rearm_listener(loop);
      } else {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                loop.rearm_at - now)
                .count() +
            1;
        const int rearm_ms = static_cast<int>(
            std::min<long long>(remaining, std::numeric_limits<int>::max()));
        wait_ms = wait_ms < 0 ? rearm_ms : std::min(wait_ms, rearm_ms);
      }
    }
    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: shutdown is tearing the loop down
    }
    if (reaping) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= next_reap) {
        reap_idle(loop, now);
        next_reap = now + config_.reap_interval;
      }
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        accept_ready(loop);
        continue;
      }
      if (tag == kEventFdTag) {
        std::uint64_t signal = 0;
        (void)::read(loop.event_fd, &signal, sizeof(signal));
        if (loops_.size() > 1) {  // adopt handed-off connections
          std::vector<int> adopted;
          {
            std::lock_guard lock(loop.handoff_mutex);
            adopted.swap(loop.handoff);
          }
          for (const int fd : adopted) adopt_connection(loop, fd);
        }
        // Read the flag BEFORE draining: once another loop's DRAIN has
        // finished the gateway, every decision is staged in the outbox, so
        // a drain that follows the load leaves only slots no decision will
        // ever reach — and those are answered now.
        const bool drained = drained_.load(std::memory_order_acquire);
        drain_outbox(loop);
        if (drained) reject_loop_pending(loop);
        continue;
      }
      auto it = loop.connections.find(tag);
      if (it == loop.connections.end()) continue;  // closed this wake
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(loop, tag);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) read_ready(loop, conn);
      // Send what the pass decided run-to-completion now, in this wake-up.
      if (loop.self_staged) drain_outbox(loop);
      // read_ready or the drain may have closed the connection; re-find
      // before writing.
      auto again = loop.connections.find(tag);
      if (again == loop.connections.end()) continue;
      if ((events[i].events & EPOLLOUT) != 0) {
        write_ready(loop, *again->second);
      }
    }
  }
  // Loop exit: close every owned connection (the sockets answer RST from
  // here) and any handed-off fds never adopted.
  std::vector<std::uint64_t> ids;
  ids.reserve(loop.connections.size());
  for (const auto& [id, conn] : loop.connections) ids.push_back(id);
  for (const std::uint64_t id : ids) close_connection(loop, id);
  {
    std::lock_guard lock(loop.handoff_mutex);
    for (const int fd : loop.handoff) ::close(fd);
    loop.handoff.clear();
  }
}

void AdmissionServer::accept_ready(EventLoop& loop) {
  while (loop.listener_armed) {
    const int fd = ::accept4(loop.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;  // interrupted, not empty: retry
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds or kernel memory. The backlog keeps the
        // level-triggered listener readable, so without a pause this loop
        // would spin accept4/EMFILE at 100% CPU. Disarm the listener and
        // retry after accept_backoff.
        accept_errors_.fetch_add(1, std::memory_order_relaxed);
        disarm_listener(loop);
        return;
      }
      // Per-connection failure (ECONNABORTED and friends): that one
      // connection is gone, the listener is fine.
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (loops_.size() > 1) {
      // Single acceptor: round-robin the new connection across loops;
      // remote loops adopt it on their next eventfd wake.
      EventLoop& target = *loops_[handoff_cursor_++ % loops_.size()];
      if (&target != &loop) {
        {
          std::lock_guard lock(target.handoff_mutex);
          target.handoff.push_back(fd);
        }
        signal_loop(target);
        continue;
      }
    }
    adopt_connection(loop, fd);
  }
}

void AdmissionServer::adopt_connection(EventLoop& loop, int fd) {
  set_nodelay(fd);
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->id = loop.next_conn_id;
  loop.next_conn_id += loops_.size();
  conn->last_activity = std::chrono::steady_clock::now();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  loop.connections[conn->id] = std::move(conn);
}

void AdmissionServer::disarm_listener(EventLoop& loop) {
  if (!loop.listener_armed || loop.listen_fd < 0) return;
  epoll_event ev{};
  ev.events = 0;  // stay registered, report nothing
  ev.data.u64 = kListenerTag;
  (void)::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, loop.listen_fd, &ev);
  loop.listener_armed = false;
  loop.rearm_at = std::chrono::steady_clock::now() + config_.accept_backoff;
}

void AdmissionServer::rearm_listener(EventLoop& loop) {
  if (loop.listener_armed || loop.listen_fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  (void)::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, loop.listen_fd, &ev);
  // Level-triggered: connections still parked in the backlog re-fire
  // EPOLLIN on the next wait immediately.
  loop.listener_armed = true;
}

void AdmissionServer::read_ready(EventLoop& loop, Connection& conn) {
  char buf[65536];
  bool peer_closed = false;
  conn.last_activity = std::chrono::steady_clock::now();
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      const auto len = static_cast<std::size_t>(n);
      if (conn.is_http == -1) {
        conn.http_request.append(buf, len);
        // Classify on the first byte that rules "GET " out: a binary
        // client that writes fewer than 4 bytes and then waits (say, a
        // partial frame header) must still reach the FrameDecoder.
        const std::size_t have =
            std::min<std::size_t>(conn.http_request.size(), 4);
        if (conn.http_request.compare(0, have, "GET ", have) != 0) {
          conn.is_http = 0;
          conn.decoder.feed(conn.http_request.data(),
                            conn.http_request.size());
          conn.http_request.clear();
          conn.http_request.shrink_to_fit();
        } else if (conn.http_request.size() >= 4) {
          conn.is_http = 1;
        }
        // else: still an exact proper prefix of "GET "; keep sniffing.
      } else if (conn.is_http == 1) {
        conn.http_request.append(buf, len);
      } else {
        conn.decoder.feed(buf, len);
      }
      // A short read emptied the socket: decode now instead of paying a
      // recv that can only say EAGAIN. Level-triggered epoll reports the
      // fd again if more bytes (or the peer's FIN) arrive.
      if (len < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;  // fatal socket error
    break;
  }

  if (conn.is_http == 1) {
    if (conn.http_request.size() > config_.max_http_request) {
      conn.dead = true;
    } else if (conn.http_request.find("\r\n\r\n") != std::string::npos) {
      handle_http(loop, conn);
    }
  } else if (conn.is_http == 0) {
    Frame frame;
    while (!conn.dead && !conn.close_after_flush) {
      const FrameDecoder::Status status = conn.decoder.next(frame);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kError) {
        submit_pending(loop, conn);
        send_protocol_error(loop, conn, conn.decoder.error());
        break;
      }
      handle_frame(loop, conn, frame);
    }
    // The pass's SUBMITs go to the gateway in one call.
    submit_pending(loop, conn);
  }

  if (conn.dead || peer_closed ||
      (conn.close_after_flush && conn.write_pos == conn.write_buffer.size())) {
    // A half-closed peer that still owes us a flush keeps the connection
    // until the buffer empties only if it asked for a response; with the
    // read side gone we cannot tell, so close outright.
    close_connection(loop, conn.id);
  }
}

void AdmissionServer::write_ready(EventLoop& loop, Connection& conn) {
  flush(conn);
  if (conn.dead ||
      (conn.close_after_flush && conn.write_pos == conn.write_buffer.size())) {
    close_connection(loop, conn.id);
    return;
  }
  update_epoll(loop, conn);
}

void AdmissionServer::handle_frame(EventLoop& loop, Connection& conn,
                                   const Frame& frame) {
  std::string error;
  // SUBMIT and SUBMIT_BATCH frames collect into the pass's pending
  // submission; anything else first submits what collected before it, so
  // the gateway sees every frame in stream order (a DRAIN finds the
  // earlier SUBMITs already in).
  if (frame.type != FrameType::kSubmit &&
      frame.type != FrameType::kSubmitBatch) {
    submit_pending(loop, conn);
  }
  switch (frame.type) {
    case FrameType::kSubmit: {
      SubmitMsg msg;
      if (!parse_submit(frame, msg, &error)) {
        submit_pending(loop, conn);
        send_protocol_error(loop, conn, error);
        return;
      }
      // A SUBMIT is a one-job batch: same slots, same gateway path.
      loop.pending_jobs.push_back(msg.job);
      loop.pending_request_ids.push_back(msg.request_id);
      return;
    }
    case FrameType::kSubmitBatch: {
      std::uint64_t base = 0;
      // Decoded into the loop's reusable scratch (one memcpy on matching
      // layouts), then appended to the pending submission.
      if (!parse_submit_batch_into(frame, base, loop.batch_scratch,
                                   &error)) {
        submit_pending(loop, conn);
        send_protocol_error(loop, conn, error);
        return;
      }
      loop.pending_jobs.insert(loop.pending_jobs.end(),
                               loop.batch_scratch.begin(),
                               loop.batch_scratch.end());
      for (std::size_t i = 0; i < loop.batch_scratch.size(); ++i) {
        loop.pending_request_ids.push_back(base + i);
      }
      return;
    }
    case FrameType::kPing: {
      std::uint64_t token = 0;
      if (!parse_token(frame, token, &error)) {
        send_protocol_error(loop, conn, error);
        return;
      }
      std::vector<char> bytes;
      encode_pong(bytes, token);
      queue_frame(loop, conn, bytes);
      return;
    }
    case FrameType::kDrain:
      handle_drain(loop, conn);
      return;
    case FrameType::kError:
      // The peer reported a violation on our stream; nothing to answer.
      conn.dead = true;
      return;
    case FrameType::kDecision:
    case FrameType::kReject:
    case FrameType::kDrained:
    case FrameType::kPong:
      send_protocol_error(loop, conn,
                          "server-bound stream carried a "
                          "server-to-client frame");
      return;
  }
  send_protocol_error(loop, conn, "unhandled frame type");
}

RejectMsg AdmissionServer::make_reject(std::uint64_t request_id,
                                       JobId job_id, Outcome outcome) const {
  RejectMsg msg;
  msg.request_id = request_id;
  msg.job_id = job_id;
  msg.outcome = outcome;
  if (outcome == Outcome::kRejectedRetryAfter) {
    msg.retry_after_ms =
        static_cast<std::uint32_t>(gateway_->retry_after().count());
  }
  return msg;
}

void AdmissionServer::submit_pending(EventLoop& loop, Connection& conn) {
  const std::vector<Job>& jobs = loop.pending_jobs;
  if (jobs.empty()) return;
  const std::vector<std::uint64_t>& request_ids = loop.pending_request_ids;
  loop.reply_scratch.clear();
  std::vector<char>& bytes = loop.reply_scratch;
  const bool drained = drained_.load(std::memory_order_acquire);
  if (drained || !loop.slots.can_take(jobs.size())) {
    const Outcome status =
        drained ? Outcome::kRejectedClosed : Outcome::kRejectedQueueFull;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      encode_reject(bytes, make_reject(request_ids[i], jobs[i].id, status));
    }
  } else {
    std::vector<std::uint64_t>& tokens = loop.token_scratch;
    tokens.clear();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      tokens.push_back(open_slot(loop, conn, request_ids[i], jobs[i].id));
    }
    // A pass that carries exactly one job is the low-load signal: an idle
    // shard decides it on this thread and the DECISION leaves in this
    // wake-up. Under load passes grow and take the ring, so the shards
    // keep deciding in parallel and the loop keeps to the wire work.
    (void)gateway_->submit_batch(jobs, &loop.status_scratch, tokens,
                                 SubmitHandoff::kRunToCompletion);
    const std::vector<Outcome>& statuses = loop.status_scratch;
    // Give back the slots of synchronously shed jobs and answer them now.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (statuses[i] == Outcome::kEnqueued) continue;
      close_slot(loop, conn, tokens[i]);
      encode_reject(bytes,
                    make_reject(request_ids[i], jobs[i].id, statuses[i]));
    }
  }
  loop.pending_jobs.clear();
  loop.pending_request_ids.clear();
  if (!bytes.empty()) queue_bytes(loop, conn, bytes.data(), bytes.size());
}

void AdmissionServer::handle_drain(EventLoop& loop, Connection& conn) {
  if (!drained_.load(std::memory_order_acquire)) {
    // finish() blocks this loop thread while the shards drain their
    // queues. Decision hooks keep firing meanwhile, but they only append
    // to per-loop outboxes and signal eventfds — no deadlock — and by the
    // time finish() returns every decision has been rendered and staged.
    finish_gateway();
  }
  // Wake the other loops: with drained_ set they drain their outboxes and
  // reject their own leftovers on the next eventfd wake.
  for (auto& other : loops_) {
    if (other.get() != &loop) wake_loop(*other);
  }
  drain_outbox(loop);
  reject_loop_pending(loop);
  DrainedMsg msg;
  {
    std::lock_guard lock(result_mutex_);
    msg.submitted = result_.merged.submitted;
    msg.accepted = result_.merged.accepted;
    msg.rejected = result_.merged.rejected;
    msg.accepted_volume = result_.merged.accepted_volume;
    msg.rejected_volume = result_.merged.rejected_volume;
    msg.makespan = result_.merged.makespan;
    msg.clean = result_.clean() ? 1 : 0;
  }
  std::vector<char> bytes;
  encode_drained(bytes, msg);
  queue_frame(loop, conn, bytes);
}

void AdmissionServer::reject_loop_pending(EventLoop& loop) {
  if (loop.slots.live() == 0) return;
  // A live slot means the job was enqueued but its shard never rendered a
  // decision (poisoned by a violation with halt_on_violation, or the
  // worker crashed without a restart). The submission contract still owes
  // one answer: closed, no decision.
  for (std::uint32_t slot = 0; slot < loop.slots.allocated(); ++slot) {
    const ReplySlot reply = loop.slots[slot];
    if (reply.conn_id == 0) continue;
    loop.slots.release(slot);
    auto it = loop.connections.find(reply.conn_id);
    if (it == loop.connections.end()) continue;
    Connection& conn = *it->second;
    --conn.owed;
    loop.reply_scratch.clear();
    encode_reject(loop.reply_scratch,
                  make_reject(reply.request_id, reply.job_id,
                              Outcome::kRejectedClosed));
    queue_frame(loop, conn, loop.reply_scratch);
  }
}

void AdmissionServer::handle_http(EventLoop& loop, Connection& conn) {
  const std::size_t line_end = conn.http_request.find("\r\n");
  const std::string request_line = conn.http_request.substr(0, line_end);
  std::string body;
  std::string status = "200 OK";
  if (request_line.compare(0, 13, "GET /metrics ") == 0 ||
      request_line.compare(0, 6, "GET / ") == 0) {
    ExporterInput input = collect_exporter_input(*gateway_);
    input.loop_eventfd_wakeups = loop_wakeups();
    body = render_prometheus(input);
    // The reaper and accept counters live in the server, not the gateway,
    // so they are appended after the gateway-derived exposition.
    body +=
        "# HELP slacksched_connections_reaped_total Connections closed by "
        "the idle reaper.\n"
        "# TYPE slacksched_connections_reaped_total counter\n"
        "slacksched_connections_reaped_total " +
        std::to_string(connections_reaped()) +
        "\n"
        "# HELP slacksched_accept_errors_total accept4 failures (resource "
        "exhaustion triggers listener backoff).\n"
        "# TYPE slacksched_accept_errors_total counter\n"
        "slacksched_accept_errors_total " +
        std::to_string(accept_errors()) + "\n";
  } else {
    status = "404 Not Found";
    body = "only GET /metrics is served here\n";
  }
  std::string response = "HTTP/1.0 " + status +
                         "\r\nContent-Type: text/plain; version=0.0.4"
                         "\r\nContent-Length: " +
                         std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" +
                         body;
  conn.close_after_flush = true;
  queue_bytes(loop, conn, response.data(), response.size());
}

void AdmissionServer::send_protocol_error(EventLoop& loop, Connection& conn,
                                          const std::string& message) {
  std::vector<char> bytes;
  encode_error(bytes, message);
  conn.close_after_flush = true;
  queue_frame(loop, conn, bytes);
}

void AdmissionServer::queue_bytes(EventLoop& loop, Connection& conn,
                                  const char* data, std::size_t n) {
  if (conn.dead) return;
  // Output owed to the peer is activity too: a client quietly waiting for
  // a slow decision is not idle once the reply is on its way.
  conn.last_activity = std::chrono::steady_clock::now();
  // Compact the flushed prefix when it dominates the buffer.
  if (conn.write_pos > 0 && (conn.write_pos == conn.write_buffer.size() ||
                             conn.write_pos >= 65536)) {
    conn.write_buffer.erase(
        conn.write_buffer.begin(),
        conn.write_buffer.begin() +
            static_cast<std::ptrdiff_t>(conn.write_pos));
    conn.write_pos = 0;
  }
  conn.write_buffer.insert(conn.write_buffer.end(), data, data + n);
  flush(conn);
  if (!conn.dead) update_epoll(loop, conn);
}

void AdmissionServer::flush(Connection& conn) {
  while (conn.write_pos < conn.write_buffer.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.write_buffer.data() + conn.write_pos,
               conn.write_buffer.size() - conn.write_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    conn.dead = true;  // peer reset; the loop closes at a safe point
    return;
  }
}

void AdmissionServer::update_epoll(EventLoop& loop, Connection& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (conn.write_pos < conn.write_buffer.size()) ev.events |= EPOLLOUT;
  ev.data.u64 = conn.id;
  (void)::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void AdmissionServer::close_connection(EventLoop& loop,
                                       std::uint64_t conn_id) {
  auto it = loop.connections.find(conn_id);
  if (it == loop.connections.end()) return;
  const int fd = it->second->fd;
  (void)::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  loop.connections.erase(it);
  // Reply slots owed to this connection stay live until their decisions
  // reach the outbox; drain_outbox then drops the answers and frees them.
}

void AdmissionServer::reap_idle(EventLoop& loop,
                                std::chrono::steady_clock::time_point now) {
  // The owed count decides exemption: a connection awaiting a DECISION
  // (slow shard, δ-deferred resolution) is never reaped, however long the
  // wire stays silent — one-answer-per-SUBMIT outranks idleness. Every
  // owed transition happens on this (the loop) thread: increments when a
  // submission takes a reply slot, decrements at outbox drain, sync-shed
  // close_slot and post-drain rejection. A connection judged reapable here
  // can therefore neither become owed before the close below, nor look
  // un-owed while a shard callback's DECISION is still staged.
  std::vector<std::uint64_t> expired;
  for (const auto& [id, conn] : loop.connections) {
    if (now - conn->last_activity < config_.idle_timeout) continue;
    if (conn->owed > 0) continue;
    expired.push_back(id);
  }
  for (const std::uint64_t id : expired) {
    close_connection(loop, id);
    connections_reaped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void AdmissionServer::drain_outbox(EventLoop& loop) {
  loop.self_staged = false;
  loop.staged.clear();
  {
    // Swap, don't copy: the arena and entry list ping-pong between the
    // producer side and this drain, keeping their high-water capacity.
    std::lock_guard lock(loop.outbox_mutex);
    loop.staged.bytes.swap(loop.outbox.bytes);
    loop.staged.entries.swap(loop.outbox.entries);
  }
  const std::vector<Outbox::Entry>& entries = loop.staged.entries;
  std::size_t i = 0;
  while (i < entries.size()) {
    // Each connection's consecutive run of decisions flushes as one
    // vectored write.
    const std::uint64_t conn_id = entries[i].conn_id;
    std::size_t j = i + 1;
    while (j < entries.size() && entries[j].conn_id == conn_id) ++j;
    auto it = loop.connections.find(conn_id);
    if (it != loop.connections.end()) {
      // The owed count drops only here, on the loop thread, once the run
      // is handed to the socket. The shard callback that staged these
      // entries left the count intact, so a reap tick between the
      // callback and this drain still sees the connection as owed.
      Connection& conn = *it->second;
      deliver_staged(loop, conn, i, j);
      conn.owed -= static_cast<std::uint32_t>(j - i);
      if (conn.dead) close_connection(loop, conn_id);
    }
    // else: client left; answers dropped
    for (std::size_t k = i; k < j; ++k) loop.slots.release(entries[k].slot);
    i = j;
  }
}

void AdmissionServer::deliver_staged(EventLoop& loop, Connection& conn,
                                     std::size_t first, std::size_t last) {
  if (conn.dead) return;
  conn.last_activity = std::chrono::steady_clock::now();
  const Outbox& staged = loop.staged;
  if (conn.write_pos < conn.write_buffer.size()) {
    // Output already queued: append behind it (EPOLLOUT is armed; order
    // must hold) and try one flush.
    for (std::size_t k = first; k < last; ++k) {
      const char* src = staged.bytes.data() + staged.entries[k].offset;
      conn.write_buffer.insert(conn.write_buffer.end(), src,
                               src + staged.entries[k].length);
    }
    flush(conn);
    if (!conn.dead) update_epoll(loop, conn);
    return;
  }
  conn.write_buffer.clear();
  conn.write_pos = 0;
  // Fast path: vectored write straight from the staging arena — no copy
  // into the connection buffer unless the socket pushes back. sendmsg is
  // writev with MSG_NOSIGNAL (a reset peer must not SIGPIPE the server).
  constexpr std::size_t kIovBatch = 64;
  iovec iov[kIovBatch];
  std::size_t k = first;
  while (k < last) {
    std::size_t cnt = 0;
    std::size_t chunk_end = k;
    while (chunk_end < last && cnt < kIovBatch) {
      iov[cnt].iov_base = const_cast<char*>(staged.bytes.data() +
                                            staged.entries[chunk_end].offset);
      iov[cnt].iov_len = staged.entries[chunk_end].length;
      ++cnt;
      ++chunk_end;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(conn.fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        conn.dead = true;  // peer reset; caller closes at a safe point
        return;
      }
    }
    // Walk the sent bytes off the chunk; any remainder (short write or
    // EAGAIN) spills into the connection buffer and waits for EPOLLOUT.
    auto sent = static_cast<std::size_t>(n < 0 ? 0 : n);
    while (k < chunk_end && sent >= staged.entries[k].length) {
      sent -= staged.entries[k].length;
      ++k;
    }
    if (k == last) return;  // everything written, nothing buffered
    if (k == chunk_end && sent == 0) continue;  // full chunk; next chunk
    for (std::size_t r = k; r < last; ++r) {
      const char* src = staged.bytes.data() + staged.entries[r].offset;
      std::size_t len = staged.entries[r].length;
      if (r == k) {
        src += sent;
        len -= sent;
      }
      conn.write_buffer.insert(conn.write_buffer.end(), src, src + len);
    }
    update_epoll(loop, conn);
    return;
  }
}

}  // namespace slacksched::net
