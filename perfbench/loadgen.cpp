// pb_loadgen: a single-threaded load generator for the `scandiag serve` unix
// socket protocol, one connection per request.
//
// It deliberately links nothing from the scandiag tree: it speaks the wire
// format ([u32 len][u32 crc32][payload], little-endian) from the bytes the
// run.py already encoded, so internal refactors cannot break it.
//
//   pb_loadgen --socket S --pool FRAMES --indices IDX --out RESULTS
//              --mode closed|open [--rate R] --seconds T
//
// FRAMES holds back-to-back complete request frames; IDX is a u32 list of
// pool entries to send, cycled. closed sends request i+1 when reply i lands;
// open sends request i at t0 + i/R whatever the replies do (an open loop),
// and each record keeps its due time so latency counts the wait a stall
// imposes on later requests. RESULTS gets one record per request:
//   u32 index, i64 due_ns, i64 sent_ns, i64 done_ns, u8 outcome,
//   u32 reply_len, reply bytes (the reply frame's payload)
// with outcome 0 = reply frame, 1 = connect failed, 2 = I/O failed or peer
// closed early, 3 = timed out.

#include <errno.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

std::int64_t nowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

std::uint32_t readU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

void putU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void putI64(std::string& out, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((u >> (8 * i)) & 0xFF));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "pb_loadgen: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

enum Outcome : std::uint8_t { kReply = 0, kConnectFailed = 1, kIoFailed = 2, kTimedOut = 3 };

struct Request {
  std::uint32_t index = 0;
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t done = 0;
  Outcome outcome = kIoFailed;
  std::string reply;
};

struct InFlight {
  std::size_t request = 0;
  std::size_t written = 0;
  std::string buffer;
};

/// A request without a reply after this long is recorded as timed out.
constexpr std::int64_t kTimeoutNs = 5000000000LL;
/// Open-loop connections in flight at most; later requests wait (and their
/// wait is measured, since latency runs from the due time).
constexpr std::size_t kMaxInFlight = 256;

struct Options {
  std::string socket, pool, indices, out, mode;
  double rate = 0.0;
  double seconds = 0.0;
};

Options parseOptions(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  auto need = [&](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      std::fprintf(stderr, "pb_loadgen: missing %s\n", key);
      std::exit(2);
    }
    return it->second;
  };
  o.socket = need("--socket");
  o.pool = need("--pool");
  o.indices = need("--indices");
  o.out = need("--out");
  o.mode = need("--mode");
  o.seconds = std::atof(need("--seconds").c_str());
  if (o.mode == "open") o.rate = std::atof(need("--rate").c_str());
  if ((o.mode != "open" && o.mode != "closed") || o.seconds <= 0 ||
      (o.mode == "open" && o.rate <= 0)) {
    std::fprintf(stderr, "pb_loadgen: bad mode/rate/seconds\n");
    std::exit(2);
  }
  return o;
}

/// Splits FRAMES into its back-to-back frames.
std::vector<std::string> splitFrames(const std::string& bytes) {
  std::vector<std::string> frames;
  std::size_t at = 0;
  while (at + 8 <= bytes.size()) {
    const std::size_t len = readU32(bytes.data() + at);
    if (at + 8 + len > bytes.size()) break;
    frames.push_back(bytes.substr(at, 8 + len));
    at += 8 + len;
  }
  if (at != bytes.size() || frames.empty()) {
    std::fprintf(stderr, "pb_loadgen: malformed pool file\n");
    std::exit(2);
  }
  return frames;
}

class Generator {
 public:
  Generator(const Options& options, std::vector<std::string> frames,
            std::vector<std::uint32_t> indices)
      : o_(options), frames_(std::move(frames)), indices_(std::move(indices)) {
    std::memset(&addr_, 0, sizeof addr_);
    addr_.sun_family = AF_UNIX;
    std::strncpy(addr_.sun_path, o_.socket.c_str(), sizeof addr_.sun_path - 1);
    epfd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) {
      std::perror("pb_loadgen: epoll_create1");
      std::exit(1);
    }
  }
  ~Generator() { ::close(epfd_); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  std::vector<Request> run() {
    const bool open = o_.mode == "open";
    const std::int64_t t0 = nowNs();
    const std::int64_t end = t0 + static_cast<std::int64_t>(o_.seconds * 1e9);
    const std::size_t planned =
        open ? static_cast<std::size_t>(o_.rate * o_.seconds) : static_cast<std::size_t>(-1);
    const double periodNs = open ? 1e9 / o_.rate : 0.0;
    epoll_event events[64];
    for (;;) {
      const std::int64_t now = nowNs();
      // Issue everything that is due.
      if (open) {
        while (issued_ < planned && inflight_.size() < kMaxInFlight) {
          const std::int64_t due = t0 + static_cast<std::int64_t>(periodNs * issued_);
          if (due > now) break;
          start(due);
        }
      } else if (inflight_.empty() && now < end) {
        start(now);
      }
      expire(nowNs());
      const bool issuing = open ? issued_ < planned : nowNs() < end;
      if (!issuing && inflight_.empty()) break;

      // Spin while a reply is outstanding or a due time is under 1.5 ms away:
      // epoll's timeout is too coarse, and on virtual machines a sleeping
      // thread can wake milliseconds late, which would be charged to the
      // daemon's latency or show up as generator lag.
      int timeoutMs = 0;
      if (open && inflight_.empty() && issued_ < planned) {
        const std::int64_t due = t0 + static_cast<std::int64_t>(periodNs * issued_);
        const std::int64_t wait = due - nowNs();
        if (wait > 1500000) timeoutMs = static_cast<int>((wait - 1000000) / 1000000);
      }
      const int n = epoll_wait(epfd_, events, 64, timeoutMs);
      for (int i = 0; i < n; ++i) onEvent(events[i].data.fd, events[i].events);
    }
    return std::move(requests_);
  }

 private:
  void start(std::int64_t due) {
    Request r;
    r.index = indices_[issued_ % indices_.size()];
    r.due = due;
    ++issued_;
    r.sent = nowNs();
    const std::size_t id = requests_.size();
    requests_.push_back(std::move(r));
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr_), sizeof addr_) != 0) {
      if (fd >= 0) ::close(fd);
      finish(id, kConnectFailed);
      return;
    }
    InFlight& f = inflight_[fd];
    f.request = id;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = fd;
    epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
    pump(fd, f, EPOLLOUT);
  }

  void onEvent(int fd, std::uint32_t mask) {
    const auto it = inflight_.find(fd);
    if (it == inflight_.end()) return;
    pump(fd, it->second, mask);
  }

  /// Writes what is left of the request, then reads until one reply frame.
  void pump(int fd, InFlight& f, std::uint32_t mask) {
    const std::string& frame = frames_[requests_[f.request].index];
    while (f.written < frame.size()) {
      const ssize_t w =
          ::send(fd, frame.data() + f.written, frame.size() - f.written, MSG_NOSIGNAL);
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      // A shedding server writes BUSY and closes without reading the request;
      // stop writing and read whatever reply it left.
      const bool peerGone = w < 0 && (errno == EPIPE || errno == ECONNRESET);
      if (w <= 0 && !peerGone) return close(fd, kIoFailed);
      f.written = peerGone ? frame.size() : f.written + static_cast<std::size_t>(w);
      if (f.written == frame.size()) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
      }
    }
    if (!(mask & (EPOLLIN | EPOLLHUP | EPOLLERR))) return;
    char buf[65536];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof buf);
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (r <= 0) return close(fd, kIoFailed);
      f.buffer.append(buf, static_cast<std::size_t>(r));
      if (f.buffer.size() >= 8 && f.buffer.size() >= 8 + readU32(f.buffer.data())) {
        requests_[f.request].reply = f.buffer.substr(8, readU32(f.buffer.data()));
        return close(fd, kReply);
      }
    }
  }

  void expire(std::int64_t now) {
    std::vector<int> late;
    for (const auto& [fd, f] : inflight_)
      if (now - requests_[f.request].sent > kTimeoutNs) late.push_back(fd);
    for (int fd : late) close(fd, kTimedOut);
  }

  void close(int fd, Outcome outcome) {
    const auto it = inflight_.find(fd);
    const std::size_t id = it->second.request;
    epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    inflight_.erase(it);
    finish(id, outcome);
  }

  void finish(std::size_t id, Outcome outcome) {
    requests_[id].done = nowNs();
    requests_[id].outcome = outcome;
  }

  const Options& o_;
  std::vector<std::string> frames_;
  std::vector<std::uint32_t> indices_;
  sockaddr_un addr_{};
  int epfd_ = -1;
  std::size_t issued_ = 0;
  std::vector<Request> requests_;
  std::unordered_map<int, InFlight> inflight_;
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = parseOptions(argc, argv);
  std::vector<std::string> frames = splitFrames(slurp(options.pool));
  const std::string raw = slurp(options.indices);
  std::vector<std::uint32_t> indices;
  for (std::size_t at = 0; at + 4 <= raw.size(); at += 4) {
    const std::uint32_t idx = readU32(raw.data() + at);
    if (idx >= frames.size()) {
      std::fprintf(stderr, "pb_loadgen: index %u outside the pool\n", idx);
      return 2;
    }
    indices.push_back(idx);
  }
  if (indices.empty()) {
    std::fprintf(stderr, "pb_loadgen: empty index list\n");
    return 2;
  }
  Generator generator(options, std::move(frames), std::move(indices));
  const std::vector<Request> requests = generator.run();

  std::string out;
  for (const Request& r : requests) {
    putU32(out, r.index);
    putI64(out, r.due);
    putI64(out, r.sent);
    putI64(out, r.done);
    out.push_back(static_cast<char>(r.outcome));
    putU32(out, static_cast<std::uint32_t>(r.reply.size()));
    out.append(r.reply);
  }
  std::ofstream file(options.out, std::ios::binary | std::ios::trunc);
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  if (!file) {
    std::fprintf(stderr, "pb_loadgen: cannot write %s\n", options.out.c_str());
    return 1;
  }
  return 0;
}
