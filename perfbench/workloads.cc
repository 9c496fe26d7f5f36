#include "perfbench/workloads.h"

#include <random>

#include "src/data/xmark_gen.h"
#include "src/xml/serializer.h"

namespace perfbench {

namespace {

/// Words that occur in XMark person records, so rules and KORs that name
/// them score real answers.
constexpr const char* kPersonWords[] = {
    "College", "Graduate", "male",  "female",    "United States",
    "Japan",   "Germany",  "Osaka", "category3", "High School"};

/// Concatenation by appending, in argument order.
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  (out += ... += parts);
  return out;
}

template <size_t N>
const char* Pick(const char* const (&words)[N], std::mt19937& rng) {
  return words[rng() % N];
}

}  // namespace

std::string XmarkText(size_t bytes, uint32_t seed) {
  pimento::data::XmarkOptions options;
  options.target_bytes = bytes;
  options.seed = seed;
  return pimento::xml::SerializeXml(pimento::data::GenerateXmark(options));
}

std::vector<std::string> Fig5Profiles() {
  static const char* kKors[] = {
      "kor pi1: tag=person prefer ftcontains(\"male\")",
      "kor pi2: tag=person prefer ftcontains(\"United States\")",
      "kor pi3: tag=person prefer ftcontains(\"College\")",
      "kor pi4: tag=person prefer ftcontains(\"Phoenix\")",
  };
  static const char* kWeights[] = {" weight 32", " weight 4", " weight 2",
                                   " weight 1"};
  std::vector<std::string> profiles;
  for (int kors = 1; kors <= 4; ++kors) {
    for (bool weighted : {false, true}) {
      std::string text = "profile fig5\nrank K,V,S\n";
      for (int i = 0; i < kors; ++i) {
        text += kKors[i];
        if (weighted) text += kWeights[i];
        text += "\n";
      }
      if (weighted) text += "vor pi5: tag=person prefer age = \"33\"\n";
      profiles.push_back(std::move(text));
    }
  }
  return profiles;
}

std::string UserProfile(uint32_t seed, int user) {
  std::mt19937 rng(seed * 2654435761u + static_cast<uint32_t>(user));
  const std::string u = Cat("u", std::to_string(user));
  std::string text = Cat("profile user", std::to_string(user), "\nrank K,V,S\n");
  const std::string kor_word = Pick(kPersonWords, rng);
  const uint32_t age = 18 + rng() % 53;
  int rule = 0;
  auto sr = [&](const std::string& body) {
    text += Cat("sr ", u, "r", std::to_string(rule), " priority ",
                std::to_string(rule + 1), ": ", body, "\n");
    ++rule;
  };
  auto ft = [](const std::string& word) {
    return Cat("ftcontains(., \"", word, "\")");
  };

  // The 3 rules that apply to the Phoenix query, each adding an optional
  // keyword predicate. None deletes the Phoenix predicate: that is the only
  // way two rules applicable to this query can conflict, and it would demote
  // the rare anchor and turn every request into a full tag scan.
  for (int i = 0; i < 3; ++i) {
    const std::string added = Pick(kPersonWords, rng);
    sr(Cat(i % 2 == 0 ? "if //person[ftcontains(., \"Phoenix\")]"
                      : "if //person",
           " then add ftcontains(person, \"", added, "\")"));
  }

  // 37 rules that do not apply: their four-predicate conditions name
  // person attributes the query lacks. They share the applicable rules'
  // vocabulary, and their deletes conflict with each other, so the profile
  // compiler's pairwise analysis has real work on most pairs. Forty rules
  // in all, because at 32 the plans' execution took more than half of a
  // request on most seeds. (Words are drawn into named variables so the
  // draw order is fixed.)
  while (rule < 40) {
    const uint32_t kind = rng() % 3;
    const std::string w1 = Pick(kPersonWords, rng);
    const std::string w2 = Pick(kPersonWords, rng);
    const std::string w3 = Pick(kPersonWords, rng);
    const std::string w4 = Pick(kPersonWords, rng);
    const std::string concl = Pick(kPersonWords, rng);
    const char* action = rng() % 2 == 0 ? "add" : "delete";
    std::string cond;
    if (kind == 0) {
      cond = Cat("//person[", ft(w1), " and ", ft(w2), " and ./profile[",
                 ft(w3), " and ", ft(w4), "]]");
    } else if (kind == 1) {
      cond = Cat("//person[./profile[", ft(w1), " and ", ft(w2), "] and ",
                 ft(w3), " and ./address[", ft(w4), "]]");
    } else {
      cond = Cat("//person[./address[", ft(w1), "] and ./profile[", ft(w2),
                 " and ", ft(w3), "] and ", ft(w4), "]");
    }
    sr(Cat("if ", cond, " then ", action, " ftcontains(person, \"", concl,
           "\")"));
  }
  text += Cat("kor ", u, "k: tag=person prefer ftcontains(\"", kor_word,
              "\")\n");
  text += Cat("vor ", u, "v: tag=person prefer age = \"", std::to_string(age),
              "\"\n");
  return text;
}

std::vector<Request> BatchMix(int size, uint32_t seed, int* next_user) {
  static const std::vector<std::string> profiles = Fig5Profiles();
  std::vector<Request> batch;
  batch.reserve(size);
  for (int i = 0; i < size; ++i) {
    if (i % 16 == 15) {
      batch.push_back(
          {kPhoenixQuery, UserProfile(seed, (*next_user)++), true});
    } else if (i % 4 == 3) {
      batch.push_back(
          {kPhoenixQuery, i % 8 == 3 ? kPlainProfile : profiles[i % 8], false});
    } else {
      batch.push_back({kFig5Query, profiles[i % 8], false});
    }
  }
  return batch;
}

}  // namespace perfbench
