// The client side of the benchmark's loopback traffic, written apart
// from src/net so the server is measured and checked from outside: a
// blocking HTTP/1.1 keep-alive client, an incremental SSE frame parser,
// and a small JSON reader for verdicts, /status and feed events.
#ifndef GFD_PERFBENCH_WIRE_H_
#define GFD_PERFBENCH_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  static std::optional<Json> Parse(std::string_view text);
  /// Member `key` of an object, or nullptr.
  const Json* Get(std::string_view key) const;
  /// Numeric member `key`, or `fallback` when absent or not a number.
  double Num(std::string_view key, double fallback = -1) const;
};

/// One blocking client connection to 127.0.0.1:port.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool Connect(uint16_t port, std::string* error);
  void Close();
  int fd() const { return fd_; }

  /// Sends one request and reads the whole Content-Length response.
  bool Request(std::string_view method, std::string_view target,
               std::string_view body, int* status, std::string* resp_body);
  /// Sends a GET and reads the status line and headers of a streamed
  /// response; body bytes that arrived with the headers stay buffered
  /// and are returned by the first ReadSome.
  bool OpenStream(std::string_view target, int* status);
  /// Appends the bytes now readable to *out; false on EOF or error.
  bool ReadSome(std::string* out);

 private:
  bool SendAll(std::string_view data);
  bool ReadHead(int* status, size_t* content_length);

  int fd_ = -1;
  std::string buf_;
};

/// Splits an SSE byte stream into frames (blank-line terminated);
/// comment-only frames (heartbeats) are dropped.
class SseParser {
 public:
  struct Frame {
    std::string event;
    std::string id;
    std::string data;
  };
  void Feed(std::string_view bytes) { buf_.append(bytes); }
  bool Next(Frame* out);

 private:
  std::string buf_;
  size_t pos_ = 0;
};

/// One violation line of a feed event: A (added) or R (removed).
struct FeedEntry {
  bool added = false;
  uint32_t rule = 0;
  uint64_t pivot = 0;
  friend auto operator<=>(const FeedEntry&, const FeedEntry&) = default;
};

/// Parses the JSON data of a `diff` event; nullopt when malformed.
std::optional<std::pair<uint64_t, std::vector<FeedEntry>>> ParseDiffEvent(
    std::string_view data);

}  // namespace perfbench

#endif  // GFD_PERFBENCH_WIRE_H_
