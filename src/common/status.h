/**
 * @file
 * Lightweight status / error reporting for recoverable failures.
 *
 * MithriLog distinguishes two failure classes, following the convention of
 * large systems-simulation codebases:
 *   - programming errors (broken invariants) abort via MITHRIL_ASSERT;
 *   - recoverable conditions (a query that cannot be compiled into a
 *     cuckoo table, a corrupt compressed page) surface as Status values
 *     that the caller must consume.
 */
#ifndef MITHRIL_COMMON_STATUS_H
#define MITHRIL_COMMON_STATUS_H

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace mithril {

/** Error category attached to a non-ok Status. */
enum class StatusCode {
    kOk = 0,
    kInvalidArgument,   ///< caller passed something malformed
    kCapacityExceeded,  ///< a fixed hardware-style resource ran out
    kNotFound,          ///< lookup missed
    kCorruptData,       ///< on-storage bytes failed validation
    kUnsupported,       ///< valid request outside this engine's abilities
    kInternal,          ///< unexpected internal condition
    kDataLoss,          ///< bytes unrecoverable after retry/ECC exhausted
    kUnavailable,       ///< device not serving requests (power lost)
    kResourceExhausted, ///< admission control: queue/backlog full, retry
    kFailedPrecondition,///< valid request against the wrong object state
};

/** Human-readable name for a status code. */
const char *statusCodeName(StatusCode code);

/**
 * Value type carrying success or a (code, message) error.
 *
 * Cheap to copy in the ok case; error construction allocates the message.
 *
 * The class itself is [[nodiscard]]: any call returning a Status by value
 * must consume it (assign, MITHRIL_RETURN_IF_ERROR, or an explicit
 * (void) cast with a justification comment). Enforced tree-wide by
 * -Werror in the werror/tidy/tsa presets and by tools/mithril_lint.py.
 */
class [[nodiscard]] Status
{
  public:
    /** Constructs an ok status. */
    Status() : code_(StatusCode::kOk) {}

    /** Constructs an error status; @p code must not be kOk. */
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message)) {}

    static Status ok() { return Status(); }

    static Status
    invalidArgument(std::string msg)
    {
        return Status(StatusCode::kInvalidArgument, std::move(msg));
    }

    static Status
    capacityExceeded(std::string msg)
    {
        return Status(StatusCode::kCapacityExceeded, std::move(msg));
    }

    static Status
    notFound(std::string msg)
    {
        return Status(StatusCode::kNotFound, std::move(msg));
    }

    static Status
    corruptData(std::string msg)
    {
        return Status(StatusCode::kCorruptData, std::move(msg));
    }

    static Status
    unsupported(std::string msg)
    {
        return Status(StatusCode::kUnsupported, std::move(msg));
    }

    static Status
    internal(std::string msg)
    {
        return Status(StatusCode::kInternal, std::move(msg));
    }

    static Status
    dataLoss(std::string msg)
    {
        return Status(StatusCode::kDataLoss, std::move(msg));
    }

    static Status
    unavailable(std::string msg)
    {
        return Status(StatusCode::kUnavailable, std::move(msg));
    }

    static Status
    resourceExhausted(std::string msg)
    {
        return Status(StatusCode::kResourceExhausted, std::move(msg));
    }

    static Status
    failedPrecondition(std::string msg)
    {
        return Status(StatusCode::kFailedPrecondition, std::move(msg));
    }

    [[nodiscard]] bool isOk() const { return code_ == StatusCode::kOk; }
    [[nodiscard]] StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** Formats "CODE: message" for logs and test failures. */
    std::string toString() const;

  private:
    StatusCode code_;
    std::string message_;
};

namespace detail {
[[noreturn]] void assertFail(const char *expr, const char *file, int line);
} // namespace detail

/** Aborts with a diagnostic when a programming invariant is violated. */
#define MITHRIL_ASSERT(expr)                                              \
    do {                                                                  \
        if (!(expr)) {                                                    \
            ::mithril::detail::assertFail(#expr, __FILE__, __LINE__);     \
        }                                                                 \
    } while (0)

/** Propagates a non-ok Status to the caller. */
#define MITHRIL_RETURN_IF_ERROR(expr)                                     \
    do {                                                                  \
        ::mithril::Status mithril_status__ = (expr);                      \
        if (!mithril_status__.isOk()) {                                   \
            return mithril_status__;                                      \
        }                                                                 \
    } while (0)

} // namespace mithril

#endif // MITHRIL_COMMON_STATUS_H
