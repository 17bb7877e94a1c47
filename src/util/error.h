// Library-wide exception hierarchy. Exceptions signal programmer or
// environment errors (bad schema, I/O failure, corrupt page); expected
// conditions (missing row, cache miss) are expressed as optionals / status
// codes at the call site instead.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace wre {

/// Root of all exceptions thrown by the wre library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Storage layer failure: file I/O errors, corrupt pages, page-id bounds.
class StorageError : public Error {
 public:
  using Error::Error;
};

/// On-disk data failed its integrity check (page checksum mismatch). A
/// distinct type so callers can tell "the disk lied" from ordinary I/O
/// failures — corrupted pages must surface loudly, never be served as data.
class CorruptionError : public StorageError {
 public:
  using StorageError::StorageError;
};

/// SQL layer failure: parse errors, unknown tables/columns, type mismatches.
class SqlError : public Error {
 public:
  using Error::Error;
};

/// Crypto layer failure: bad key sizes, malformed ciphertexts.
class CryptoError : public Error {
 public:
  using Error::Error;
};

/// WRE client failure: unknown plaintext distributions, bad parameters.
class WreError : public Error {
 public:
  using Error::Error;
};

/// Network layer failure: socket errors, timeouts, malformed or oversized
/// wire frames, protocol version mismatches.
class NetworkError : public Error {
 public:
  using Error::Error;
};

/// A frame's payload is larger than a frame may carry: the u32 length
/// field, or the receiver's max_frame_bytes. The same request draws the
/// same payload again, so clients do not retry it.
class FrameTooLargeError : public NetworkError {
 public:
  using NetworkError::NetworkError;
};

/// The server shed this request under overload (admission control or a
/// server-side deadline). Always safe to retry after a backoff: the request
/// was rejected before execution, or the retry is deduplicated by its
/// idempotency key.
class OverloadedError : public NetworkError {
 public:
  using NetworkError::NetworkError;
};

/// A client-side retry loop gave up: attempt cap, overall deadline, or
/// retry budget. Carries how many attempts were made and the total elapsed
/// time so callers (and their logs) can see the request's whole history.
class RetriesExhaustedError : public NetworkError {
 public:
  RetriesExhaustedError(const std::string& what, int attempts,
                        uint64_t elapsed_ms)
      : NetworkError(what), attempts_(attempts), elapsed_ms_(elapsed_ms) {}

  int attempts() const { return attempts_; }
  uint64_t elapsed_ms() const { return elapsed_ms_; }

 private:
  int attempts_ = 0;
  uint64_t elapsed_ms_ = 0;
};

}  // namespace wre
