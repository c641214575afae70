#include "src/server/protocol.hpp"

#include <errno.h>
#include <unistd.h>

#include <cstring>

#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace punt::server {
namespace {

constexpr const char* kDocument = "serve request JSON";

std::string errno_text() { return std::string(std::strerror(errno)); }

/// Reads exactly `count` bytes (retrying on EINTR and short reads).  Returns
/// false on EOF at byte 0 when `start_ok` (the stream is still at a frame
/// boundary, so the close is clean); EOF mid-count throws — a half-delivered
/// frame cannot be resynchronised.
bool read_exact(int fd, char* buffer, std::size_t count, bool start_ok) {
  std::size_t got = 0;
  while (got < count) {
    const ssize_t n = ::read(fd, buffer + got, count - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("serve protocol: read failed: " + errno_text());
    }
    if (n == 0) {
      if (got == 0 && start_ok) return false;
      throw Error("serve protocol: peer closed the stream mid-frame (" +
                  std::to_string(got) + " of " + std::to_string(count) + " byte(s))");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes all of `buffer`, retrying on EINTR and short writes.  SIGPIPE is
/// the caller's concern: the server ignores it process-wide and takes the
/// EPIPE throw; tests over pipes do the same.
void write_exact(int fd, const char* buffer, std::size_t count) {
  std::size_t sent = 0;
  while (sent < count) {
    const ssize_t n = ::write(fd, buffer + sent, count - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("serve protocol: write failed: " + errno_text());
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool optional_bool(const util::JsonValue& object, const std::string& key, bool fallback) {
  const util::JsonValue* value = object.find(key);
  if (value == nullptr) return fallback;
  if (value->type != util::JsonValue::Type::Bool) {
    throw ParseError(std::string(kDocument) + " field '" + key + "' must be a boolean");
  }
  return value->boolean;
}

std::string optional_string(const util::JsonValue& object, const std::string& key,
                            const std::string& fallback) {
  const util::JsonValue* value = object.find(key);
  if (value == nullptr) return fallback;
  if (value->type != util::JsonValue::Type::String) {
    throw ParseError(std::string(kDocument) + " field '" + key + "' must be a string");
  }
  return value->string;
}

}  // namespace

std::string to_json(const Request& request) {
  const char* op = nullptr;
  switch (request.op) {
    case Op::Synth: op = "synth"; break;
    case Op::Check: op = "check"; break;
    case Op::Lint: op = "lint"; break;
    case Op::CacheStats: op = "cache-stats"; break;
    case Op::Ping: op = "ping"; break;
    case Op::Shutdown: op = "shutdown"; break;
  }
  std::string out = "{\"op\": \"" + std::string(op) + "\"";
  if (request.op == Op::Synth || request.op == Op::Check) {
    out += ", \"g\": \"" + util::json_escape(request.g_text) + "\"";
  }
  if (request.op == Op::Synth) {
    out += ", \"method\": \"" + util::json_escape(request.method) + "\"";
    out += ", \"arch\": \"" + util::json_escape(request.arch) + "\"";
    out += std::string(", \"minimize\": ") + (request.minimize ? "true" : "false");
    out += std::string(", \"eqn\": ") + (request.eqn ? "true" : "false");
    out += std::string(", \"verilog\": ") + (request.verilog ? "true" : "false");
    // Written only when set, so a synth request that uses neither DOT
    // writer nor a label has the bytes an older client sends.
    if (request.dot) out += ", \"dot\": true";
    if (request.unfolding_dot) out += ", \"unfolding_dot\": true";
    if (request.name != Request::kDefaultName) {
      out += ", \"name\": \"" + util::json_escape(request.name) + "\"";
    }
  }
  if (request.op == Op::Lint) {
    out += ", \"files\": [";
    for (std::size_t i = 0; i < request.lint_files.size(); ++i) {
      if (i != 0) out += ", ";
      out += "{\"name\": \"" + util::json_escape(request.lint_files[i].name) +
             "\", \"g\": \"" + util::json_escape(request.lint_files[i].text) + "\"}";
    }
    out += "]";
    out += std::string(", \"deep\": ") + (request.lint_deep ? "true" : "false");
    out += std::string(", \"json\": ") + (request.lint_json ? "true" : "false");
    out += std::string(", \"werror\": ") + (request.lint_werror ? "true" : "false");
    out += ", \"werror_rules\": [";
    for (std::size_t i = 0; i < request.lint_werror_rules.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + util::json_escape(request.lint_werror_rules[i]) + "\"";
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string to_json(const Response& response) {
  std::string out = std::string("{\"ok\": ") + (response.ok ? "true" : "false");
  if (response.ok) {
    out += ", \"exit\": " + std::to_string(response.exit_code);
    out += ", \"output\": \"" + util::json_escape(response.output) + "\"";
    out += ", \"log\": \"" + util::json_escape(response.log) + "\"";
  } else {
    out += ", \"error\": \"" + util::json_escape(response.error) + "\"";
  }
  out += "}";
  return out;
}

Request request_from_json(std::string_view text) {
  const util::JsonValue root = util::parse_json(text);
  if (root.type != util::JsonValue::Type::Object) {
    throw ParseError(std::string(kDocument) + " must be an object");
  }
  Request request;
  const std::string op = util::json_string(root, "op", kDocument);
  if (op == "synth") {
    request.op = Op::Synth;
  } else if (op == "check") {
    request.op = Op::Check;
  } else if (op == "lint") {
    request.op = Op::Lint;
  } else if (op == "cache-stats") {
    request.op = Op::CacheStats;
  } else if (op == "ping") {
    request.op = Op::Ping;
  } else if (op == "shutdown") {
    request.op = Op::Shutdown;
  } else {
    throw ParseError("serve request has unknown op '" + op +
                     "'; this build handles synth, check, lint, cache-stats, "
                     "ping, shutdown");
  }
  if (request.op == Op::Synth || request.op == Op::Check) {
    request.g_text = util::json_string(root, "g", kDocument);
  }
  if (request.op == Op::Synth) {
    request.method = optional_string(root, "method", request.method);
    if (request.method != "approx" && request.method != "exact" &&
        request.method != "sg") {
      throw ParseError("serve request has unknown method '" + request.method +
                       "'; expected approx, exact or sg");
    }
    request.arch = optional_string(root, "arch", request.arch);
    if (request.arch != "acg" && request.arch != "c" && request.arch != "rs") {
      throw ParseError("serve request has unknown arch '" + request.arch +
                       "'; expected acg, c or rs");
    }
    request.minimize = optional_bool(root, "minimize", request.minimize);
    request.eqn = optional_bool(root, "eqn", request.eqn);
    request.verilog = optional_bool(root, "verilog", request.verilog);
    request.dot = optional_bool(root, "dot", request.dot);
    request.unfolding_dot = optional_bool(root, "unfolding_dot", request.unfolding_dot);
    request.name = optional_string(root, "name", request.name);
  }
  if (request.op == Op::Lint) {
    const util::JsonValue& files =
        util::json_require(root, "files", util::JsonValue::Type::Array, kDocument);
    request.lint_files.reserve(files.array.size());
    for (const util::JsonValue& entry : files.array) {
      if (entry.type != util::JsonValue::Type::Object) {
        throw ParseError(std::string(kDocument) +
                         " field 'files' must hold objects with 'name' and 'g'");
      }
      Request::LintFile file;
      file.name = util::json_string(entry, "name", kDocument);
      file.text = util::json_string(entry, "g", kDocument);
      request.lint_files.push_back(std::move(file));
    }
    request.lint_deep = optional_bool(root, "deep", request.lint_deep);
    request.lint_json = optional_bool(root, "json", request.lint_json);
    request.lint_werror = optional_bool(root, "werror", request.lint_werror);
    if (const util::JsonValue* rules = root.find("werror_rules")) {
      if (rules->type != util::JsonValue::Type::Array) {
        throw ParseError(std::string(kDocument) +
                         " field 'werror_rules' must be an array of rule ids");
      }
      for (const util::JsonValue& rule : rules->array) {
        if (rule.type != util::JsonValue::Type::String) {
          throw ParseError(std::string(kDocument) +
                           " field 'werror_rules' must be an array of rule ids");
        }
        request.lint_werror_rules.push_back(rule.string);
      }
    }
  }
  return request;
}

Response response_from_json(std::string_view text) {
  const util::JsonValue root = util::parse_json(text);
  if (root.type != util::JsonValue::Type::Object) {
    throw ParseError("serve response JSON must be an object");
  }
  Response response;
  response.ok = util::json_bool(root, "ok", "serve response JSON");
  if (response.ok) {
    const double exit = util::json_number(root, "exit", "serve response JSON");
    // The socket peer is untrusted; a double outside int range makes the
    // cast undefined behaviour.  Real exit codes live in [0, 255].
    if (!(exit >= 0) || exit > 255 || exit != static_cast<int>(exit)) {
      throw ParseError("serve response has exit code " + std::to_string(exit) +
                       "; expected an integer in 0..255");
    }
    response.exit_code = static_cast<int>(exit);
    response.output = util::json_string(root, "output", "serve response JSON");
    response.log = util::json_string(root, "log", "serve response JSON");
  } else {
    response.error = util::json_string(root, "error", "serve response JSON");
  }
  return response;
}

FrameStatus read_frame(int fd, std::string& payload) {
  unsigned char prefix[4];
  if (!read_exact(fd, reinterpret_cast<char*>(prefix), sizeof prefix, true)) {
    return FrameStatus::Eof;
  }
  const std::uint32_t length = static_cast<std::uint32_t>(prefix[0]) |
                               (static_cast<std::uint32_t>(prefix[1]) << 8) |
                               (static_cast<std::uint32_t>(prefix[2]) << 16) |
                               (static_cast<std::uint32_t>(prefix[3]) << 24);
  if (length == 0) {
    throw Error("serve protocol: zero-length frame");
  }
  if (length > kMaxFrameBytes) {
    // Refuse before buffering: the declared size is the attack, reading it
    // would be the damage.
    throw Error("serve protocol: frame of " + std::to_string(length) +
                " bytes exceeds the " + std::to_string(kMaxFrameBytes) + "-byte limit");
  }
  payload.resize(length);
  read_exact(fd, payload.data(), length, false);
  return FrameStatus::Ok;
}

void write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw Error("serve protocol: refusing to send a frame of " +
                std::to_string(payload.size()) + " bytes (limit " +
                std::to_string(kMaxFrameBytes) + ")");
  }
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(length & 0xFF),
      static_cast<unsigned char>((length >> 8) & 0xFF),
      static_cast<unsigned char>((length >> 16) & 0xFF),
      static_cast<unsigned char>((length >> 24) & 0xFF),
  };
  // Prefix and body are written separately — the fd is used by one thread
  // per connection, so there is no interleaving to guard against and no
  // reason to copy a multi-megabyte payload just to prepend 4 bytes.
  write_exact(fd, reinterpret_cast<const char*>(prefix), sizeof prefix);
  write_exact(fd, payload.data(), payload.size());
}

}  // namespace punt::server
