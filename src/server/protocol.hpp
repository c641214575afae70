// The `punt serve` wire protocol (DESIGN.md §9).
//
// Transport: a stream socket — Unix domain or TCP (server/endpoint.hpp);
// the framing is transport-agnostic.  Every message — request or
// response — is one *frame*:
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
//    "minimize":bool, "eqn":bool, "verilog":bool}   (all but "g" optional)
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
//
// TCP connections additionally start with a mandatory authentication
// handshake *before* any request frame (Unix connections skip it — the
// socket file's permissions already arbitrate access):
//
//   frame 0  server → client   {"auth":"hmac-sha256","nonce":<64 hex>}
//   frame 1  client → server   {"mac":<64 hex>}       HMAC-SHA256(token, nonce)
//   frame 2  server → client   ordinary Response      ok=true admits the
//                              connection; ok=false ("unauthorized: ...")
//                              refuses it and the server closes
//
// The nonce is fresh per connection (32 CSPRNG bytes), so a captured MAC
// cannot be replayed, and the token itself never crosses the wire.  The
// explicit ack frame makes refusals deterministic for the client — without
// it a refusal could race the server's close and be discarded with the
// connection reset.
#pragma once

#include <sys/un.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace punt::server {

/// The AF_UNIX address for `path`.  Throws Error on an empty path or one
/// exceeding the sun_path limit (~107 bytes) — shared by server bind,
/// server liveness probe and client connect so the validation and its
/// diagnostic cannot drift apart.
sockaddr_un unix_address(const std::string& path);

/// Upper bound on one frame's JSON body.  Generous for any registry-sized
/// `.g` text (the largest is a few KiB) while still bounding what a broken
/// or hostile client can make the server allocate.
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;  // 16 MiB

enum class Op : std::uint8_t { Synth, Check, Lint, CacheStats, Ping, Shutdown };

/// One decoded request.  The synthesis fields mirror the CLI flags a
/// `--connect` client forwards; they are carried as validated enums-as-text
/// (parse_request rejects unknown values, so the service layer never sees
/// an invalid method/arch).
struct Request {
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
  /// The receive deadline (set_receive_timeout) expired at a frame
  /// boundary — the peer is idle, not broken.  A deadline expiring
  /// *mid-frame* throws instead: a half-delivered frame means the stream
  /// cannot be resynchronised.
  IdleTimeout,
};

/// Arms SO_RCVTIMEO on `fd` so blocked reads give up after `seconds`
/// (0 disables the deadline).  This is how the daemon bounds both handshake
/// and idle time per TCP connection without a timer thread.
void set_receive_timeout(int fd, double seconds);

/// Reads one frame from `fd` into `payload`.  Returns Eof only on a clean
/// close at a frame boundary (and IdleTimeout only when a receive deadline
/// is armed); throws Error on a short/failed read or on a
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

/// Nonce width for the TCP auth handshake: 32 CSPRNG bytes (64 hex chars),
/// matching the MAC width so neither side's buffers are guessable-short.
constexpr std::size_t kNonceBytes = 32;

/// The hex MAC a client must answer a challenge with:
/// HMAC-SHA256(token, nonce_hex) over the nonce *as transmitted* (its hex
/// text), so there is no decode step to disagree on.
std::string auth_mac_hex(const std::string& token, const std::string& nonce_hex);

/// Server side of the TCP handshake: challenge, read the answer, verify in
/// constant time, then send the verdict frame (ok=true admits; a refusal is
/// sent best-effort).  Returns false with a diagnostic in `why` on any
/// failure — bad MAC, malformed answer, peer gone, deadline expired; the
/// caller counts and closes.  Never throws.
bool server_handshake(int fd, const std::string& token, std::string& why);

/// Client side: read the challenge, answer with the MAC over `token`, read
/// the verdict.  Throws Error on refusal or transport failure.  A client
/// with no token still answers (with an empty-key MAC), so "missing token"
/// is refused by the server's verdict rather than hanging the exchange.
void client_handshake(int fd, const std::string& token);

}  // namespace punt::server
