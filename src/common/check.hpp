// Lightweight invariant checking. DKF_CHECK is always on (simulation
// correctness beats the last few percent of host speed); failures throw
// `dkf::CheckFailure` so tests can assert on them and long experiment runs
// fail loudly instead of corrupting results.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace dkf {

/// Thrown when a DKF_CHECK fails. Carries file/line and the failed expression.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] void checkFailed(const char* expr, const char* file, int line,
                              const std::string& msg);
}  // namespace detail

}  // namespace dkf

/// Assert `cond`; on failure throws dkf::CheckFailure with location info.
#define DKF_CHECK(cond)                                                   \
  do {                                                                    \
    if (!(cond)) ::dkf::detail::checkFailed(#cond, __FILE__, __LINE__, ""); \
  } while (false)

/// Assert with a streamed message: DKF_CHECK_MSG(x > 0, "x=" << x).
#define DKF_CHECK_MSG(cond, stream_expr)                                  \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::ostringstream dkf_check_os_;                                   \
      dkf_check_os_ << stream_expr;                                       \
      ::dkf::detail::checkFailed(#cond, __FILE__, __LINE__,               \
                                 dkf_check_os_.str());                    \
    }                                                                     \
  } while (false)

/// Fail unconditionally with a streamed message, e.g. after an exhaustive
/// switch. The [[noreturn]] call has no condition in front of it, so every
/// compiler configuration sees that control cannot fall off the end of a
/// value-returning function (DKF_CHECK_MSG(false, ...) draws -Wreturn-type
/// from GCC 12 under -fsanitize=thread -O0).
#define DKF_FAIL(stream_expr)                                             \
  do {                                                                    \
    std::ostringstream dkf_check_os_;                                     \
    dkf_check_os_ << stream_expr;                                         \
    ::dkf::detail::checkFailed("false", __FILE__, __LINE__,               \
                               dkf_check_os_.str());                      \
  } while (false)
