/**
 * @file
 * Status / error reporting in the gem5 spirit: fatal() for user error,
 * FORMS_ASSERT for internal invariant violations, warn()/inform() for
 * non-fatal status messages.
 *
 * inform() is silenced by FORMS_LOG=warn, read once from the
 * environment (info | warn; default info). warn(), fatal() and
 * FORMS_ASSERT always print — terminating without saying why is never
 * the right verbosity.
 */

#ifndef FORMS_COMMON_LOGGING_HH
#define FORMS_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace forms {

/**
 * Terminate because of a user-caused, unrecoverable condition
 * (bad configuration, invalid arguments). Exits with code 1.
 */
[[noreturn]] void fatal(const char *fmt, ...);

/** Alert the user that something may be wrong but execution continues. */
void warn(const char *fmt, ...);

/** Print an informational status message (silent under FORMS_LOG=warn). */
void inform(const char *fmt, ...);

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...);

/**
 * FORMS_ASSERT backend: report an internal invariant violation (a
 * FORMS bug, never the user's fault) with expression/location context
 * and std::abort().
 */
[[noreturn]] void panicAt(const char *expr, const char *file, int line,
                          const char *fmt, ...);

/**
 * Internal check macro: panics with expression text when `cond` is false.
 * Used for invariants that must hold regardless of user input.
 */
#define FORMS_ASSERT(cond, ...)                                          \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::forms::panicAt(#cond, __FILE__, __LINE__, __VA_ARGS__);    \
        }                                                                \
    } while (0)

} // namespace forms

#endif // FORMS_COMMON_LOGGING_HH
