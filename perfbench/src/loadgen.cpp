// Load generator for the serve workloads.
//
//   perfbench_loadgen open <job.txt> <out_dir>
//   perfbench_loadgen closed <job.txt> <out_dir>
//
// job.txt: a header line "<host> <port> <conns>", then one request per
// line: "<t_seconds> <class> <key> <request json>".  <key> numbers the
// distinct (op, design) pairs.
//
// open: each request is sent at its scheduled time on connection
// (index % conns), whatever is outstanding; latency runs from the scheduled
// time to the reply, so a stall also delays later requests.
// closed: one pass over the list; each connection sends its next request
// when its previous reply arrives.
//
// Every reply's raw result bytes are compared with the first reply seen for
// the same key, kept in <out_dir>/k<key>.json (written on first sight, read
// back by a later run) for run.py to compare with the one-shot CLI.
// Output, one line per record:
//   open <id> <class> <status> <latency_ms> <late_ms> <same>
//   pass <wall_s>
//   closed <id> <status> <same>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/protocol.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace protocol = netrev::pipeline::protocol;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Request {
  double t = 0;
  std::string cls;
  int key = 0;
  std::string id;
  std::string line;  // with trailing newline
};

class Socket {
 public:
  Socket(const std::string& host, const std::string& port) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 || !res)
      throw std::runtime_error("cannot resolve " + host);
    fd_ = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
    const bool ok = fd_ >= 0 && ::connect(fd_, res->ai_addr, res->ai_addrlen) == 0;
    freeaddrinfo(res);
    if (!ok) throw std::runtime_error("cannot connect to " + host + ":" + port);
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  void send_all(const std::string& bytes) {
    std::lock_guard<std::mutex> lock(send_mutex_);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const auto nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return line;
      }
      scanned_ = buffer_.size();
      char chunk[1 << 16];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("server closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::mutex send_mutex_;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

// Checks every reply's result bytes against the first reply for its key.
class Results {
 public:
  explicit Results(std::string dir) : dir_(std::move(dir)) {}

  // Returns (status, same-bytes-as-first-reply-for-key).
  std::pair<std::string, bool> record(const Request& req,
                                      const std::string& line) {
    const protocol::ParsedResponse parsed = protocol::parse_response(line);
    if (!parsed.response) return {"malformed", false};
    const protocol::Response& response = *parsed.response;
    const std::string status = protocol::status_name(response.status);
    if (response.id != req.id) return {"wrong_id", false};
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = first_.find(req.key);
    if (it == first_.end()) {
      const std::string path = dir_ + "/k" + std::to_string(req.key) + ".json";
      std::ifstream in(path, std::ios::binary);
      if (in) {
        std::ostringstream seen;
        seen << in.rdbuf();
        it = first_.emplace(req.key, seen.str()).first;
      } else {
        std::ofstream(path, std::ios::binary) << response.result;
        it = first_.emplace(req.key, response.result).first;
      }
    }
    return {status, it->second == response.result};
  }

 private:
  std::string dir_;
  std::mutex mutex_;
  std::map<int, std::string> first_;
};

void open_loop(const std::vector<Request>& reqs,
               std::vector<std::unique_ptr<Socket>>& conns, Results& results,
               std::ostream& out) {
  const std::size_t n = reqs.size();
  std::vector<Clock::time_point> due(n), done(n);
  std::vector<double> late(n);
  std::vector<std::pair<std::string, bool>> verdict(n);
  std::map<std::string, std::size_t> index;  // read-only once threads start
  for (std::size_t i = 0; i < n; ++i) index[reqs[i].id] = i;

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < n; ++i)
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(reqs[i].t));

  // One reader per connection; it expects the replies of the requests that
  // connection carries (responses may come back out of order).
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    std::size_t expected = 0;
    for (std::size_t i = c; i < n; i += conns.size()) ++expected;
    readers.emplace_back([&, c, expected] {
      for (std::size_t k = 0; k < expected; ++k) {
        const std::string line = conns[c]->read_line();
        const Clock::time_point now = Clock::now();
        const auto parsed = protocol::parse_response(line);
        std::size_t i = n;
        if (parsed.response) {
          const auto it = index.find(parsed.response->id);
          if (it != index.end()) i = it->second;
        }
        if (i == n) throw std::runtime_error("reply with an unknown id");
        done[i] = now;
        verdict[i] = results.record(reqs[i], line);
      }
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due[i]);
    late[i] = ms_between(due[i], Clock::now());
    conns[i % conns.size()]->send_all(reqs[i].line);
  }
  for (auto& t : readers) t.join();
  for (std::size_t i = 0; i < n; ++i)
    out << "open " << reqs[i].id << ' ' << reqs[i].cls << ' '
        << verdict[i].first << ' ' << ms_between(due[i], done[i]) << ' '
        << late[i] << ' ' << verdict[i].second << '\n';
}

void closed_loop(const std::vector<Request>& reqs,
                 std::vector<std::unique_ptr<Socket>>& conns, Results& results,
                 std::ostream& out) {
  std::atomic<std::size_t> next{0};
  std::vector<std::pair<std::string, bool>> verdict(reqs.size());
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (auto& conn : conns) {
    threads.emplace_back([&, sock = conn.get()] {
      for (std::size_t i = next++; i < reqs.size(); i = next++) {
        sock->send_all(reqs[i].line);
        verdict[i] = results.record(reqs[i], sock->read_line());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  out << "pass " << wall << '\n';
  for (std::size_t i = 0; i < reqs.size(); ++i)
    out << "closed " << reqs[i].id << ' ' << verdict[i].first << ' '
        << verdict[i].second << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (argc != 4 || (mode != "open" && mode != "closed")) {
    std::cerr << "usage: perfbench_loadgen open|closed <job.txt> <out_dir>\n";
    return 2;
  }
  try {
    std::ifstream job(argv[2]);
    std::string host, port;
    std::size_t conns = 0;
    job >> host >> port >> conns;
    std::vector<Request> reqs;
    std::string line;
    std::getline(job, line);
    while (std::getline(job, line)) {
      if (line.empty()) continue;
      std::istringstream in(line);
      Request req;
      in >> req.t >> req.cls >> req.key;
      std::getline(in >> std::ws, req.line);
      const auto parsed = protocol::parse_request(req.line);
      if (!parsed.request) throw std::runtime_error("bad request: " + req.line);
      req.id = parsed.request->id;
      req.line += '\n';
      reqs.push_back(std::move(req));
    }
    if (conns == 0 || reqs.empty()) throw std::runtime_error("empty job");

    std::vector<std::unique_ptr<Socket>> sockets;
    for (std::size_t c = 0; c < conns; ++c)
      sockets.push_back(std::make_unique<Socket>(host, port));
    Results results(argv[3]);
    std::ostringstream out;
    out.precision(9);
    if (mode == "open")
      open_loop(reqs, sockets, results, out);
    else
      closed_loop(reqs, sockets, results, out);
    std::cout << out.str();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_loadgen: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
