#include "scenario/control.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>

#include "util/assert.hpp"
#include "util/parse.hpp"

namespace ssr::scenario::ctl {
namespace {

int bind_loopback_udp(std::uint16_t* port_out) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  SSR_ASSERT(fd >= 0, "control socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  SSR_ASSERT(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
             "control bind failed");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  *port_out = ntohs(bound.sin_port);
  return fd;
}

sockaddr_in loopback_to(std::uint16_t port) {
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  to.sin_port = htons(port);
  return to;
}

constexpr std::size_t kMaxDatagram = 60 * 1024;

}  // namespace

std::optional<Request> parse_request(const std::string& line) {
  std::istringstream is(line);
  Request r;
  if (!(is >> r.reqid >> r.cmd)) return std::nullopt;
  std::string tok;
  while (is >> tok) r.args.push_back(tok);
  return r;
}

std::string format_ids(const IdSet& ids) {
  if (ids.empty()) return "-";
  std::ostringstream os;
  bool first = true;
  for (NodeId id : ids) {
    if (!first) os << ',';
    os << id;
    first = false;
  }
  return os.str();
}

std::optional<IdSet> parse_ids(const std::string& s) {
  IdSet out;
  if (s == "-") return out;
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    NodeId id = 0;
    if (!parse_uint(tok, id)) return std::nullopt;
    out.insert(id);
  }
  if (out.empty()) return std::nullopt;  // "" and "," are malformed
  return out;
}

std::map<std::string, std::string> parse_kv(const std::string& payload) {
  std::map<std::string, std::string> out;
  std::istringstream is(payload);
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    out[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return out;
}

std::string hex_encode(const wire::Bytes& b) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t byte : b) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xF]);
  }
  return out;
}

std::optional<wire::Bytes> hex_decode(const std::string& s) {
  if (s.size() % 2 != 0) return std::nullopt;
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  wire::Bytes out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const int hi = nib(s[i]), lo = nib(s[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

std::string format_snapshot(const node::NodeSnapshot& s) {
  std::ostringstream os;
  os << "id=" << s.id << " noreco=" << s.no_reco << " part=" << s.participant
     << " cfgtag=" << static_cast<int>(s.config.tag())
     << " cfg=" << format_ids(s.config.is_set() ? s.config.ids() : IdSet{})
     << " adv=" << s.advised;
  if (s.vs) {
    wire::Writer w;
    s.vs->view.encode(w);
    os << " vsmc=" << s.vs->multicast << " vsnocrd=" << s.vs->no_coordinator
       << " vscrd=" << s.vs->coordinator << " vsview=" << hex_encode(w.take());
  }
  return os.str();
}

std::optional<node::NodeSnapshot> parse_snapshot(
    const std::map<std::string, std::string>& kv) {
  using reconf::ConfigValue;
  // A missing key reads as "", which no field parser accepts.
  const auto get = [&kv](const char* key) {
    const auto it = kv.find(key);
    return it == kv.end() ? std::string() : it->second;
  };
  node::NodeSnapshot s;
  std::uint32_t tag = 0;
  auto ids = parse_ids(get("cfg"));
  if (!parse_uint(get("id"), s.id) || !parse_flag(get("noreco"), s.no_reco) ||
      !parse_flag(get("part"), s.participant) ||
      !parse_flag(get("adv"), s.advised) || !parse_uint(get("cfgtag"), tag) ||
      !ids) {
    return std::nullopt;
  }
  const auto is = [tag](ConfigValue::Tag t) {
    return tag == static_cast<std::uint32_t>(t);
  };
  if (is(ConfigValue::Tag::kSet)) {
    s.config = ConfigValue::set(std::move(*ids));
  } else if (!ids->empty()) {
    return std::nullopt;  // only a set carries ids
  } else if (is(ConfigValue::Tag::kBottom)) {
    s.config = ConfigValue::bottom();
  } else if (!is(ConfigValue::Tag::kNonParticipant)) {
    return std::nullopt;
  }

  if (kv.count("vsmc") == 0 && kv.count("vsview") == 0) return s;  // no VS
  node::NodeSnapshot::Vs& v = s.vs.emplace();
  const auto blob = hex_decode(get("vsview"));
  if (!parse_flag(get("vsmc"), v.multicast) ||
      !parse_flag(get("vsnocrd"), v.no_coordinator) ||
      !parse_uint(get("vscrd"), v.coordinator) || !blob) {
    return std::nullopt;
  }
  wire::Reader r(*blob);
  auto view = vs::View::decode(r);
  if (!view || !r.ok() || !r.exhausted()) return std::nullopt;
  v.view = std::move(*view);
  return s;
}

// -- ControlServer -----------------------------------------------------------

ControlServer::ControlServer() : buf_(kMaxDatagram) {
  fd_ = bind_loopback_udp(&port_);
}

ControlServer::~ControlServer() {
  if (fd_ >= 0) ::close(fd_);
}

void ControlServer::poll(const HandlerFn& handler) {
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    const ssize_t n = ::recvfrom(fd_, buf_.data(), buf_.size(), 0,
                                 reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) return;  // EAGAIN — drained
    auto req = parse_request(std::string(buf_.data(),
                                         static_cast<std::size_t>(n)));
    if (!req) continue;  // not ours; a reply needs a parseable reqid anyway
    std::string reply;
    if (req->reqid == last_reqid_ && !last_reply_.empty()) {
      // Duplicate of the last request (the client's retry): replay the
      // cached reply, do not re-apply the command.
      reply = last_reply_;
    } else {
      reply = std::to_string(req->reqid) + " " + handler(*req);
      last_reqid_ = req->reqid;
      last_reply_ = reply;
    }
    (void)::sendto(fd_, reply.data(), reply.size(), 0,
                   reinterpret_cast<sockaddr*>(&from), from_len);
  }
}

// -- ControlClient -----------------------------------------------------------

ControlClient::ControlClient() : buf_(kMaxDatagram) {
  std::uint16_t unused = 0;
  fd_ = bind_loopback_udp(&unused);
}

ControlClient::~ControlClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<std::string> ControlClient::request(std::uint16_t port,
                                                  const std::string& cmd,
                                                  int timeout_ms,
                                                  int attempts) {
  const std::uint64_t reqid = next_reqid_++;
  const std::string wire = std::to_string(reqid) + " " + cmd;
  const sockaddr_in to = loopback_to(port);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    (void)::sendto(fd_, wire.data(), wire.size(), 0,
                   reinterpret_cast<const sockaddr*>(&to), sizeof(to));
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc <= 0) continue;  // timeout — retransmit with the same reqid
    for (;;) {
      const ssize_t n = ::recvfrom(fd_, buf_.data(), buf_.size(), 0,
                                   nullptr, nullptr);
      if (n < 0) break;
      const std::string got(buf_.data(), static_cast<std::size_t>(n));
      std::istringstream is(got);
      std::uint64_t got_id = 0;
      if (!(is >> got_id) || got_id != reqid) continue;  // stale reply
      std::string rest;
      std::getline(is, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      return rest;
    }
  }
  return std::nullopt;
}

}  // namespace ssr::scenario::ctl
