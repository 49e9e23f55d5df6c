/**
 * @file
 * The former kernel-dispatch API, kept for the benchmark/ sources
 * only. The simulator has one kernel path (DESIGN.md §6), so there is
 * no mode to pin: setProcessMode() does nothing and every run is the
 * scalar definition. New code includes nothing from here.
 */

#ifndef FORMS_COMMON_SIMD_HH
#define FORMS_COMMON_SIMD_HH

#include <string>

namespace forms::simd {

/** For benchmark/ only: the modes its scalar pin names. */
enum class Mode { Auto, Scalar };

/** For benchmark/ only: a no-op, every run takes the one kernel path. */
inline void setProcessMode(Mode) {}

/** For benchmark/ only: "dispatch=scalar, build=<CMAKE_BUILD_TYPE>". */
inline std::string
buildDescription()
{
#if defined(FORMS_BUILD_TYPE)
    return "dispatch=scalar, build=" FORMS_BUILD_TYPE;
#else
    return "dispatch=scalar, build=unknown";
#endif
}

} // namespace forms::simd

#endif // FORMS_COMMON_SIMD_HH
