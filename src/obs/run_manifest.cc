#include "obs/run_manifest.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/threadpool.hh"

// Build-time-generated header carrying the FORMS_GIT_SHA macro (see
// cmake/git_sha.cmake). Absent when the library is compiled outside
// the CMake build (e.g. ad-hoc compile_commands tooling) — then the
// manifest falls back to the env var or "unknown".
#if defined(__has_include)
#if __has_include("forms_git_sha.hh")
#include "forms_git_sha.hh"
#endif
#endif

namespace forms::obs {

namespace {

std::string
resolveGitSha()
{
    // An explicit env override beats the build-time capture: packaged
    // binaries may have been built elsewhere, and a run from a
    // not-yet-rebuilt tree can still stamp the truth.
    if (const char *env = std::getenv("FORMS_GIT_SHA"); env && *env)
        return env;
#if defined(FORMS_GIT_SHA)
    return FORMS_GIT_SHA;
#else
    return "unknown";
#endif
}

const char *
buildTypeName()
{
#if defined(FORMS_BUILD_TYPE)
    return FORMS_BUILD_TYPE;
#else
    return "unknown";
#endif
}

} // namespace

RunManifest
RunManifest::collect(const std::string &bench)
{
    RunManifest m;
    m.bench = bench;
    m.gitSha = resolveGitSha();
    m.build = buildTypeName();
    m.threads = ThreadPool::global().threads();
    return m;
}

RunManifest &
RunManifest::set(const std::string &key, const std::string &v)
{
    config.emplace_back(key, v);
    return *this;
}

RunManifest &
RunManifest::set(const std::string &key, const char *v)
{
    config.emplace_back(key, std::string(v));
    return *this;
}

RunManifest &
RunManifest::set(const std::string &key, int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    config.emplace_back(key, std::string(buf));
    return *this;
}

RunManifest &
RunManifest::set(const std::string &key, int v)
{
    return set(key, static_cast<int64_t>(v));
}

RunManifest &
RunManifest::set(const std::string &key, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    config.emplace_back(key, std::string(buf));
    return *this;
}

void
RunManifest::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("bench", bench);
    w.field("git_sha", gitSha);
    w.field("build", build);
    // One kernel path; the key stays for benchmark/run.py and
    // compare.py, which print it.
    w.field("simd_dispatch", "scalar");
    w.field("threads", threads);
    w.key("config").beginObject();
    for (const auto &[k, v] : config)
        w.field(k, v);
    w.endObject();
    w.endObject();
}

void
writeBenchHeader(JsonWriter &w, const RunManifest &m)
{
    w.field("schema_version", kBenchSchemaVersion);
    w.key("manifest");
    m.writeJson(w);
}

void
printBenchBanner(const char *tool)
{
    // Through the leveled logger: FORMS_LOG=warn silences the banner
    // for scripted runs, while the unoptimized-build warning stays
    // loud at every level short of silence.
    const char *build = buildTypeName();
    inform("%s: build=%s", tool, build);
    if (std::strcmp(build, "Release") != 0 &&
        std::strcmp(build, "RelWithDebInfo") != 0) {
        warn("%s: unoptimized build type '%s' — the numbers below are "
             "NOT meaningful performance data; rebuild with "
             "CMAKE_BUILD_TYPE=Release",
             tool, build);
    }
}

} // namespace forms::obs
