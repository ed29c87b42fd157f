#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

// ---------------------------------------------------------------- JSON

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view s) : s_(s) {}

  std::optional<Json> Document() {
    auto v = Value(0);
    Skip();
    if (!v || i_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  void Skip() {
    while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_])) ++i_;
  }
  bool Eat(char c) {
    Skip();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool Literal(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }

  std::optional<std::string> String() {
    if (!Eat('"')) return std::nullopt;
    std::string out;
    while (i_ < s_.size()) {
      char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) return std::nullopt;
      char e = s_[i_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out += e;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (i_ + 4 > s_.size()) return std::nullopt;
          unsigned code = std::strtoul(
              std::string(s_.substr(i_, 4)).c_str(), nullptr, 16);
          i_ += 4;
          // Only the identity of the text matters to the checks, so a
          // code point is kept as a marker rather than re-encoded.
          out += "\\u" + std::to_string(code);
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;
  }

  std::optional<Json> Value(int depth) {
    if (depth > 32) return std::nullopt;
    Skip();
    if (i_ >= s_.size()) return std::nullopt;
    Json v;
    char c = s_[i_];
    if (c == '{') {
      ++i_;
      v.kind = Json::Kind::kObject;
      if (Eat('}')) return v;
      do {
        auto key = String();
        if (!key || !Eat(':')) return std::nullopt;
        auto member = Value(depth + 1);
        if (!member) return std::nullopt;
        v.fields.emplace_back(std::move(*key), std::move(*member));
      } while (Eat(','));
      if (!Eat('}')) return std::nullopt;
    } else if (c == '[') {
      ++i_;
      v.kind = Json::Kind::kArray;
      if (Eat(']')) return v;
      do {
        auto item = Value(depth + 1);
        if (!item) return std::nullopt;
        v.items.push_back(std::move(*item));
      } while (Eat(','));
      if (!Eat(']')) return std::nullopt;
    } else if (c == '"') {
      auto s = String();
      if (!s) return std::nullopt;
      v.kind = Json::Kind::kString;
      v.str = std::move(*s);
    } else if (Literal("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
    } else if (Literal("false")) {
      v.kind = Json::Kind::kBool;
    } else if (Literal("null")) {
      v.kind = Json::Kind::kNull;
    } else {
      std::string token;
      while (i_ < s_.size() && std::strchr("+-0123456789.eE", s_[i_])) {
        token += s_[i_++];
      }
      if (token.empty()) return std::nullopt;
      char* end = nullptr;
      v.kind = Json::Kind::kNumber;
      v.number = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) return std::nullopt;
    }
    return v;
  }

  std::string_view s_;
  size_t i_ = 0;
};

}  // namespace

std::optional<Json> Json::Parse(std::string_view text) {
  return JsonReader(text).Document();
}

const Json* Json::Get(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::Num(std::string_view key, double fallback) const {
  const Json* v = Get(key);
  return v && v->kind == Kind::kNumber ? v->number : fallback;
}

std::optional<std::pair<uint64_t, std::vector<FeedEntry>>> ParseDiffEvent(
    std::string_view data) {
  auto doc = Json::Parse(data);
  if (!doc || doc->kind != Json::Kind::kObject) return std::nullopt;
  double seq = doc->Num("seq");
  if (seq < 1) return std::nullopt;
  std::vector<FeedEntry> entries;
  for (const char* side : {"added", "removed"}) {
    const Json* list = doc->Get(side);
    if (!list || list->kind != Json::Kind::kArray) return std::nullopt;
    for (const Json& item : list->items) {
      double rule = item.Num("rule");
      double pivot = item.Num("pivot");
      if (rule < 0 || pivot < 0) return std::nullopt;
      entries.push_back({side[0] == 'a', static_cast<uint32_t>(rule),
                         static_cast<uint64_t>(pivot)});
    }
  }
  return std::make_pair(static_cast<uint64_t>(seq), std::move(entries));
}

// ---------------------------------------------------------------- HTTP

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpClient::Connect(uint16_t port, std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

bool HttpClient::SendAll(std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool HttpClient::ReadSome(std::string* out) {
  if (!buf_.empty()) {
    out->append(buf_);
    buf_.clear();
    return true;
  }
  char chunk[16384];
  while (true) {
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    out->append(chunk, static_cast<size_t>(n));
    return true;
  }
}

bool HttpClient::ReadHead(int* status, size_t* content_length) {
  size_t end;
  while ((end = buf_.find("\r\n\r\n")) == std::string::npos) {
    char chunk[16384];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
  std::string head = buf_.substr(0, end);
  buf_.erase(0, end + 4);
  // "HTTP/1.1 200 OK"
  if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) return false;
  *status = std::atoi(head.c_str() + 9);
  *content_length = 0;
  size_t pos = 0;
  while ((pos = head.find("\r\n", pos)) != std::string::npos) {
    pos += 2;
    static constexpr std::string_view kLen = "content-length:";
    if (head.size() - pos < kLen.size()) break;
    bool match = true;
    for (size_t i = 0; i < kLen.size() && match; ++i) {
      match = std::tolower(static_cast<unsigned char>(head[pos + i])) ==
              kLen[i];
    }
    if (match) {
      *content_length = std::strtoull(head.c_str() + pos + kLen.size(),
                                      nullptr, 10);
    }
  }
  return true;
}

bool HttpClient::Request(std::string_view method, std::string_view target,
                         std::string_view body, int* status,
                         std::string* resp_body) {
  std::string req;
  req.reserve(body.size() + 128);
  req.append(method).append(" ").append(target).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!body.empty() || method == "POST") {
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n";
  req.append(body);
  if (!SendAll(req)) return false;
  size_t length = 0;
  if (!ReadHead(status, &length)) return false;
  while (buf_.size() < length) {
    char chunk[16384];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
  resp_body->assign(buf_, 0, length);
  buf_.erase(0, length);
  return true;
}

bool HttpClient::OpenStream(std::string_view target, int* status) {
  std::string req = "GET " + std::string(target) +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  size_t length = 0;
  return SendAll(req) && ReadHead(status, &length);
}

// ----------------------------------------------------------------- SSE

bool SseParser::Next(Frame* out) {
  while (true) {
    size_t end = buf_.find("\n\n", pos_);
    if (end == std::string::npos) {
      buf_.erase(0, pos_);
      pos_ = 0;
      return false;
    }
    std::string_view frame(buf_.data() + pos_, end - pos_);
    pos_ = end + 2;
    Frame f;
    bool any = false;
    size_t begin = 0;
    while (begin <= frame.size()) {
      size_t nl = frame.find('\n', begin);
      if (nl == std::string_view::npos) nl = frame.size();
      std::string_view line = frame.substr(begin, nl - begin);
      begin = nl + 1;
      if (line.empty() || line[0] == ':') continue;
      size_t colon = line.find(':');
      std::string_view field = line.substr(0, colon);
      std::string_view value =
          colon == std::string_view::npos ? "" : line.substr(colon + 1);
      if (!value.empty() && value[0] == ' ') value.remove_prefix(1);
      any = true;
      if (field == "event") f.event = value;
      if (field == "id") f.id = value;
      if (field == "data") {
        if (!f.data.empty()) f.data += '\n';
        f.data.append(value);
      }
    }
    if (any) {
      *out = std::move(f);
      return true;
    }
  }
}

}  // namespace perfbench
