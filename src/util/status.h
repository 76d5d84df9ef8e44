#ifndef SNOR_UTIL_STATUS_H_
#define SNOR_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace snor {

/// \brief Machine-readable error categories, modelled on Arrow/Abseil codes.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kIoError,
  kNotImplemented,
  kInternal,
  /// Transient failure (flaky sensor, injected fault); safe to retry.
  kUnavailable,
  /// A retry loop or staged operation ran out of time budget.
  kDeadlineExceeded,
};

/// \brief Returns a short human-readable name for a status code.
std::string_view StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation that can fail without a payload.
///
/// Library code does not throw; fallible operations return `Status` (or
/// `Result<T>` when they also produce a value). An OK status carries no
/// allocation.
///
/// The class itself is `[[nodiscard]]`: any call site that ignores a
/// returned `Status` is a compile error (`-Werror=unused-result` in the
/// root CMakeLists.txt). Intentional discards must be written as
/// `(void)Fallible();` with a justifying comment.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  /// Factory helpers, one per non-OK code.
  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  [[nodiscard]] static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  [[nodiscard]] static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  [[nodiscard]] static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  [[nodiscard]] static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  [[nodiscard]] static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  [[nodiscard]] static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  [[nodiscard]] static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  [[nodiscard]] static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "<CODE>: <message>" (or "OK").
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// True for transient failures worth retrying (`kUnavailable`, `kIoError`).
/// Everything else is either permanent (bad data, missing feature) or a
/// programming error.
bool IsRetryable(const Status& status);

/// \brief Either a value of type `T` or a non-OK `Status`.
///
/// Mirrors `arrow::Result`: inspect with `ok()`, read the payload with
/// `value()`/`operator*` only when OK. Accessing the value of a failed
/// result aborts (programming error, checked in all build modes).
///
/// Like `Status`, the class template is `[[nodiscard]]`: dropping a
/// returned `Result` silently drops both the payload and the error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value or an error status keeps call
  /// sites terse (`return 42;` / `return Status::IoError(...)`).
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                            // NOLINT(runtime/explicit)
      : payload_(std::move(status)) {
    AbortIfOkStatus();
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) = default;
  Result& operator=(Result&&) = default;

  bool ok() const { return std::holds_alternative<T>(payload_); }

  /// Returns the error status; OK when the result holds a value.
  [[nodiscard]] Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(payload_);
  }

  const T& value() const& {
    AbortIfNotOk();
    return std::get<T>(payload_);
  }
  T& value() & {
    AbortIfNotOk();
    return std::get<T>(payload_);
  }
  T&& value() && {
    AbortIfNotOk();
    return std::get<T>(std::move(payload_));
  }

  /// Moves the value out of the result.
  T MoveValue() {
    AbortIfNotOk();
    return std::get<T>(std::move(payload_));
  }

  /// Returns the value or `fallback` when the result is an error.
  T ValueOr(T fallback) const {
    if (ok()) return std::get<T>(payload_);
    return fallback;
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void AbortIfNotOk() const;
  void AbortIfOkStatus() const;

  std::variant<T, Status> payload_;
};

namespace internal {
[[noreturn]] void DieBadResultAccess(const Status& status);
[[noreturn]] void DieOkStatusInResult();
}  // namespace internal

template <typename T>
void Result<T>::AbortIfNotOk() const {
  if (!ok()) internal::DieBadResultAccess(std::get<Status>(payload_));
}

template <typename T>
void Result<T>::AbortIfOkStatus() const {
  if (std::holds_alternative<Status>(payload_) &&
      std::get<Status>(payload_).ok()) {
    internal::DieOkStatusInResult();
  }
}

/// Propagates a non-OK status out of the current function.
#define SNOR_RETURN_NOT_OK(expr)                 \
  do {                                           \
    ::snor::Status _snor_status = (expr);        \
    if (!_snor_status.ok()) return _snor_status; \
  } while (false)

/// Evaluates a Result-returning expression, propagating errors and binding
/// the unwrapped value to `lhs` on success.
#define SNOR_ASSIGN_OR_RETURN(lhs, expr)                \
  SNOR_ASSIGN_OR_RETURN_IMPL_(                          \
      SNOR_STATUS_CONCAT_(_snor_result, __LINE__), lhs, \
      expr)
#define SNOR_STATUS_CONCAT_INNER_(a, b) a##b
#define SNOR_STATUS_CONCAT_(a, b) SNOR_STATUS_CONCAT_INNER_(a, b)
#define SNOR_ASSIGN_OR_RETURN_IMPL_(result, lhs, expr) \
  auto result = (expr);                                \
  if (!result.ok()) return result.status();            \
  lhs = std::move(result).MoveValue()

}  // namespace snor

#endif  // SNOR_UTIL_STATUS_H_
