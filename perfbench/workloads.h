#ifndef PIMENTO_PERFBENCH_WORKLOADS_H_
#define PIMENTO_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's inputs. They are defined here rather than shared with
/// bench/ so that no later change to the figure harnesses can move the
/// benchmark: every query and profile text below is frozen with it.

/// The Fig. 5 query: persons with a business "Yes" descendant.
inline constexpr const char* kFig5Query =
    "//person[.//business[ftcontains(., \"Yes\")]]";

/// The selective companion query. "Phoenix" is 1 of 8 cities, so its rare
/// anchor passes the kAuto cost gate into the postings-anchored scan.
inline constexpr const char* kPhoenixQuery =
    "//person[ftcontains(., \"Phoenix\")]";

/// The serialized XMark document for `seed`, about `bytes` long. The engine
/// receives only this text.
std::string XmarkText(size_t bytes, uint32_t seed);

/// The 8 Fig. 5 profiles: KORs pi1..pi4 taken 1..4 at a time, each plain
/// and with the age VOR plus decaying degree-of-interest weights.
std::vector<std::string> Fig5Profiles();

/// The plain S-ranked profile that `batch_mix` sends with half of its
/// Phoenix requests (the planner wires the live score floor there).
inline constexpr const char* kPlainProfile = "profile plain\nrank S\n";

/// User `user`'s profile in the population drawn from `seed`: 40 scoping
/// rules of which 3 apply to the Phoenix query, one KOR and one VOR.
/// Distinct users have distinct texts.
std::string UserProfile(uint32_t seed, int user);

/// One request of a workload: a query text and a profile text.
struct Request {
  std::string query;
  std::string profile;
  bool new_user = false;  ///< a population user never sent before
};

/// `batch_mix`'s batch of `size` requests: 3 in 4 are the Fig. 5 query and
/// 1 in 4 the Phoenix query, cycling the 8 Fig. 5 profiles (half the
/// Phoenix requests carry the plain profile); position 15 of every 16 is
/// replaced by a request from a new user of the population, numbered from
/// `*next_user` on.
std::vector<Request> BatchMix(int size, uint32_t seed, int* next_user);

}  // namespace perfbench

#endif  // PIMENTO_PERFBENCH_WORKLOADS_H_
