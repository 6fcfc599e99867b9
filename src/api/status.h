// Minimal status type for constructor-time and configuration validation.
//
// The library's internal invariants stay ACCL_CHECK aborts (violating them
// means corruption), but *user-supplied configuration* — engine options,
// shard counts, boundary arrays — is input, not an invariant, and bad
// input must surface as a diagnosable error at construction instead of an
// abort (or worse, a crash deep inside the first operation that happens to
// exercise the bad knob). Factories return Status plus a null object;
// validating entry points return Status directly.
#pragma once

#include <string>
#include <utility>

namespace accl {

/// Coarse error kind, for callers that branch on *why* an operation was
/// refused (retry an I/O error, surface a precondition to the operator).
/// The message carries the detail; the code carries the category.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  /// The call was well-formed but arrived in a state that forbids it
  /// (e.g. truncating the WAL past its applied low-water).
  kFailedPrecondition,
  /// An I/O operation failed (real or injected); the durable state is
  /// unchanged unless the message says otherwise, and a retry may succeed
  /// once the device recovers.
  kIOError,
};

class Status {
 public:
  /// Default-constructed Status is OK.
  Status() = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status IOError(std::string message) {
    return Status(StatusCode::kIOError, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  /// Empty for OK statuses.
  const std::string& message() const { return message_; }

 private:
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

}  // namespace accl
