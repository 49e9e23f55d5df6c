#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

namespace forms {

namespace {

/**
 * True when FORMS_LOG=warn silences inform(); read once. Unknown
 * values complain once and keep the default (info).
 */
bool
informSilenced()
{
    static const bool silenced = [] {
        const char *env = std::getenv("FORMS_LOG");
        if (!env || !*env || std::strcmp(env, "info") == 0)
            return false;
        if (std::strcmp(env, "warn") == 0)
            return true;
        std::fprintf(stderr,
                     "warn: FORMS_LOG='%s' not one of info|warn — "
                     "using info\n",
                     env);
        return false;
    }();
    return silenced;
}

/** Serializes emission so parallel workers' messages never interleave. */
std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

std::string
vstrfmt(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

void
emit(const char *tag, const std::string &msg)
{
    // Callers format outside the lock; emit and flush atomically.
    std::lock_guard<std::mutex> lk(logMutex());
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
    std::fflush(stderr);
}

} // namespace

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("fatal", vstrfmt(fmt, ap));
    va_end(ap);
    std::exit(1);
}

void
panicAt(const char *expr, const char *file, int line, const char *fmt,
        ...)
{
    // Format the caller's message first, with its own arguments: the
    // old approach of concatenating the caller's format string onto a
    // prefix put the prefix arguments and the message arguments in the
    // wrong vararg order, so any assertion *with* format arguments
    // crashed inside vsnprintf instead of printing.
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    emit("panic", strfmt("assertion '%s' failed at %s:%d — %s", expr,
                         file, line, msg.c_str()));
    std::abort();
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    emit("warn", vstrfmt(fmt, ap));
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (informSilenced())
        return;
    va_list ap;
    va_start(ap, fmt);
    emit("info", vstrfmt(fmt, ap));
    va_end(ap);
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string s = vstrfmt(fmt, ap);
    va_end(ap);
    return s;
}

} // namespace forms
