// The build version, defined by CMake (CMC_VERSION="<project version>" on
// cmc_util, PUBLIC so every dependent sees the same string).  Stamped into
// `cmc version`, report JSON ("cmc_version"), trace job_start events, and
// the cache disk-store header line, so artifacts written by different
// builds are diagnosable when they meet (a shared --cache-dir, an archived
// report).
#pragma once

namespace cmc::util {

#ifndef CMC_VERSION
#define CMC_VERSION "0.0.0-dev"
#endif

/// The build version string, e.g. "0.3.0".
inline const char* versionString() noexcept { return CMC_VERSION; }

}  // namespace cmc::util
