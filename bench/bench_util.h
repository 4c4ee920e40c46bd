/// \file bench_util.h
/// \brief Shared helpers for the table/figure reproduction harnesses.
///
/// Every bench binary prints: the experiment id it reproduces, the
/// configuration (including seeds), the measured table, and — where the
/// paper gives absolute numbers — the paper's values alongside for shape
/// comparison. Absolute magnitudes are not comparable (the substrate is a
/// simulator, not a 1998 SPARC/ELC); the *shape* is the reproduction
/// target (see README "Reproduced experiments").

#ifndef OCB_BENCH_BENCH_UTIL_H_
#define OCB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

#include "util/format.h"

namespace ocb {
namespace bench {

inline void PrintHeader(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void PrintNote(const std::string& note) {
  std::printf("note: %s\n", note.c_str());
}

inline void PrintTable(const TextTable& table) {
  std::printf("%s", table.ToString().c_str());
}

}  // namespace bench
}  // namespace ocb

#endif  // OCB_BENCH_BENCH_UTIL_H_
