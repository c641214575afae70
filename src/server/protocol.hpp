// The `punt serve` wire protocol (DESIGN.md §9).
//
// Transport: the daemon's Unix domain socket (server/endpoint.hpp).  Every
// message — request or response — is one *frame*:
//
//   u32 length (little-endian)   byte count of the JSON body that follows
//   length bytes of UTF-8 JSON   one complete JSON object
//
// The length prefix makes message boundaries explicit (JSON itself is not
// self-delimiting over a stream) and lets the server reject an oversized
// request before reading it: a frame longer than kMaxFrameBytes is refused
// with an error response and the connection is closed — the declared bytes
// are never buffered, so a hostile length cannot balloon server memory.
//
// Requests ({"op": ...}):
//   {"op":"synth","g":<.g text>,
//    "method":"approx"|"exact"|"sg", "arch":"acg"|"c"|"rs",
//    "minimize":bool, "eqn":bool, "verilog":bool,
//    "dot":bool, "unfolding_dot":bool, "name":<label>}  (all but "g" optional;
//    "dot", "unfolding_dot" and "name" are written only when they differ
//    from false, false and "request.g")
//   {"op":"check","g":<.g text>}
//   {"op":"lint","files":[{"name":<label>,"g":<.g text>},...],
//    "deep":bool, "json":bool, "werror":bool,
//    "werror_rules":["STG006",...]}      (all but "files" optional)
//   {"op":"cache-stats"}     resident cache counters, as JSON
//   {"op":"ping"}            liveness probe
//   {"op":"shutdown"}        acknowledge, then drain and exit
//
// Responses:
//   {"ok":true, "exit":N, "output":<stdout text>, "log":<stderr text>}
//   {"ok":false, "error":<protocol-level diagnostic>}
//
// "ok" is a *protocol* verdict: a synthesis failure (CSC conflict, bad .g
// text) is a successful response with a nonzero "exit" and the diagnostic
// in "log" — exactly the exit code and stderr a direct `punt` invocation
// produces.  "ok":false means the request was not served — malformed frame
// or JSON, unknown op, or the daemon shed it under load ("error" starting
// "overloaded: ...", see Server::synth in server/server.hpp) — and the
// connection will be closed; a shed client reconnects to retry.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace punt::server {

/// Upper bound on one frame's JSON body.  Generous for any registry-sized
/// `.g` text (the largest is a few KiB) while still bounding what a broken
/// or hostile client can make the server allocate.
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;  // 16 MiB

enum class Op : std::uint8_t { Synth, Check, Lint, CacheStats, Ping, Shutdown };

/// One decoded request: what `punt synth`, `punt check` and `punt lint`
/// build from their flags, whether they run it in-process or send it to a
/// daemon.  Method and arch are carried as validated enums-as-text
/// (request_from_json rejects unknown values, so the service layer never
/// sees an invalid method/arch).
struct Request {
  static constexpr const char* kDefaultName = "request.g";

  /// One spec of a lint batch: the client's filename (a display label on
  /// the server — never opened there) plus the `.g` text it read locally.
  struct LintFile {
    std::string name;
    std::string text;
  };

  Op op = Op::Ping;
  std::string g_text;             // synth/check: the STG source (.g text)
  std::string method = "approx";  // synth: approx | exact | sg
  std::string arch = "acg";       // synth: acg | c | rs
  bool minimize = true;           // synth: run espresso
  bool eqn = false;               // synth: explicit .eqn writer
  bool verilog = false;           // synth: Verilog writer
  bool dot = false;               // synth: the STG as Graphviz DOT
  bool unfolding_dot = false;     // synth: the unfolding segment as DOT
  std::string name = kDefaultName;  // synth: the label lint refusals show
  std::vector<LintFile> lint_files;            // lint: the batch, in order
  bool lint_deep = false;                      // lint: semantic tier too
  bool lint_json = false;                      // lint: one v2 JSON document
  bool lint_werror = false;                    // lint: promote all warnings
  std::vector<std::string> lint_werror_rules;  // lint: promote these rules
};

struct Response {
  bool ok = false;
  int exit_code = 0;    // meaningful when ok: the client process exits with it
  std::string output;   // ok: what a direct invocation printed to stdout
  std::string log;      // ok: what a direct invocation printed to stderr
  std::string error;    // !ok: protocol-level diagnostic
};

std::string to_json(const Request& request);
std::string to_json(const Response& response);

/// Throws ParseError on malformed JSON, a missing/unknown "op", a missing
/// "g" on synth/check, a missing/malformed "files" array on lint, or an
/// unknown method/arch value.
Request request_from_json(std::string_view text);

/// Throws ParseError when the frame body is not a response object.
Response response_from_json(std::string_view text);

enum class FrameStatus : std::uint8_t {
  Ok,   // payload holds one complete frame body
  Eof,  // the peer closed the stream cleanly before a length prefix
};

/// Reads one frame from `fd` into `payload`.  Returns Eof only on a clean
/// close at a frame boundary; throws Error on a short/failed read or on a
/// length prefix above kMaxFrameBytes (the oversized body is not read).
/// `payload` is a *reusable* buffer: it is resized, never reallocated from
/// scratch, so callers looping over a connection (the server's frame loop,
/// Client::request) keep one buffer for the connection's lifetime and stop
/// allocating once it has seen their largest frame.
FrameStatus read_frame(int fd, std::string& payload);

/// Writes one frame to `fd`; throws Error when the peer is gone (EPIPE) or
/// the write fails.  Callers sending a best-effort error reply before
/// closing should swallow that throw themselves.
void write_frame(int fd, std::string_view payload);

}  // namespace punt::server
