#pragma once
// Error handling for the public API: lsi::Status and lsi::Expected<T>.
//
// The entry points (LsiIndex::try_build, try_build_semantic_space,
// try_load_database, try_save_database) report failures as values, so
// callers can branch without exception handling; `.value()` /
// `.or_throw()` turn a failure into a std::runtime_error where throwing is
// wanted.
//
// Header-only on purpose: Status is used below lsi_core in the layering
// (obs's schema validator reports through it) and must not drag in a link
// dependency.

#include <stdexcept>
#include <string>
#include <utility>

namespace lsi {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< caller passed something unusable (empty input,
                        ///< zero k, mismatched shapes)
  kFailedPrecondition,  ///< object state does not admit the operation
  kNotFound,            ///< named resource (file, term) absent
  kDataLoss,            ///< malformed or truncated serialized data
  kResourceExhausted,   ///< a bounded resource (ingest queue) is full —
                        ///< retry later or apply backpressure upstream
  kDeadlineExceeded,    ///< a per-request deadline expired before the work
                        ///< completed (see SearchOptions::deadline)
  kUnavailable,         ///< the service cannot take the operation right now
                        ///< (replica quorum lost); retry after recovery
  kInternal,            ///< invariant violation inside the library
};

/// Returns the canonical lower-case name ("ok", "invalid-argument", ...).
std::string_view status_code_name(StatusCode code) noexcept;

class [[nodiscard]] Status {
 public:
  /// Default-constructed Status is OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return {StatusCode::kInvalidArgument, std::move(msg)};
  }
  static Status FailedPrecondition(std::string msg) {
    return {StatusCode::kFailedPrecondition, std::move(msg)};
  }
  static Status NotFound(std::string msg) {
    return {StatusCode::kNotFound, std::move(msg)};
  }
  static Status DataLoss(std::string msg) {
    return {StatusCode::kDataLoss, std::move(msg)};
  }
  static Status ResourceExhausted(std::string msg) {
    return {StatusCode::kResourceExhausted, std::move(msg)};
  }
  static Status DeadlineExceeded(std::string msg) {
    return {StatusCode::kDeadlineExceeded, std::move(msg)};
  }
  static Status Unavailable(std::string msg) {
    return {StatusCode::kUnavailable, std::move(msg)};
  }
  static Status Internal(std::string msg) {
    return {StatusCode::kInternal, std::move(msg)};
  }

  bool ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  /// "ok" or "<code-name>: <message>".
  std::string to_string() const {
    if (ok()) return "ok";
    return std::string(status_code_name(code_)) + ": " + message_;
  }

  /// Bridges to the legacy throwing convention: no-op when ok, otherwise
  /// throws std::runtime_error carrying the message.
  void or_throw() const {
    if (!ok()) throw std::runtime_error(to_string());
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline std::string_view status_code_name(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid-argument";
    case StatusCode::kFailedPrecondition: return "failed-precondition";
    case StatusCode::kNotFound: return "not-found";
    case StatusCode::kDataLoss: return "data-loss";
    case StatusCode::kResourceExhausted: return "resource-exhausted";
    case StatusCode::kDeadlineExceeded: return "deadline-exceeded";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

/// A value or the Status explaining why there is none. The subset of
/// std::expected (C++23) this library needs; value() on an error throws
/// std::runtime_error carrying the status.
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Expected(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("Expected constructed from OK status");
    }
  }

  bool ok() const noexcept { return status_.ok(); }
  explicit operator bool() const noexcept { return ok(); }

  const Status& status() const noexcept { return status_; }

  T& value() & {
    status_.or_throw();
    return value_;
  }
  const T& value() const& {
    status_.or_throw();
    return value_;
  }
  T&& value() && {
    status_.or_throw();
    return std::move(value_);
  }

  /// Unchecked access (caller has tested ok()).
  T& operator*() & noexcept { return value_; }
  const T& operator*() const& noexcept { return value_; }
  T* operator->() noexcept { return &value_; }
  const T* operator->() const noexcept { return &value_; }

  /// The value, or `fallback` when this holds an error.
  T value_or(T fallback) const& { return ok() ? value_ : std::move(fallback); }

 private:
  T value_{};   ///< default-constructed when holding an error
  Status status_;
};

}  // namespace lsi
