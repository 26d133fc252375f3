// util::FlatMap / util::FlatSet correctness gates (DESIGN.md §16).
//
// Two layers:
//  - Property tests pinning the behaviours the sweep relies on:
//    transparent string_view lookup with zero allocations on the probe
//    path, emplace/try_emplace no-overwrite semantics (std::map
//    compatible), swap-remove erase during `it = m.erase(it)` sweeps,
//    tombstone reuse without table growth, and sorted_items() matching
//    std::map iteration order exactly.
//  - A seed-driven differential harness (mirroring scheduler_diff_test)
//    that runs identical op programs through FlatMap and a reference
//    std::map, asserting equal lookups at every step and identical
//    sorted contents at checkpoints. 16 seeds x 4 op-mix profiles.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/flat_map.h"
#include "util/interner.h"
#include "util/rng.h"

namespace simba::util {
namespace {

/// prefix + std::to_string(i), appended piecewise: GCC 12 at -O2 misreads
/// `numbered("k", i)` as an overlapping memcpy (-Wrestrict).
std::string numbered(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

TEST(FlatMap, InsertFindEraseBasics) {
  FlatMap<std::string, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);

  m["a"] = 1;
  m["b"] = 2;
  m["a"] += 10;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at("a"), 11);
  EXPECT_EQ(m.at("b"), 2);
  EXPECT_TRUE(m.contains("a"));
  EXPECT_FALSE(m.contains("c"));
  EXPECT_EQ(m.count("b"), 1u);
  EXPECT_EQ(m.count("z"), 0u);

  EXPECT_EQ(m.erase("a"), 1u);
  EXPECT_EQ(m.erase("a"), 0u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find("a"), m.end());
  ASSERT_NE(m.find("b"), m.end());
  EXPECT_EQ(m.find("b")->second, 2);
}

TEST(FlatMap, TransparentLookupTakesStringView) {
  FlatMap<std::string, int> m;
  m["endpoint.portal"] = 7;

  const std::string_view sv = "endpoint.portal";
  const char* cstr = "endpoint.portal";
  EXPECT_TRUE(m.contains(sv));
  EXPECT_TRUE(m.contains(cstr));
  ASSERT_NE(m.find(sv), m.end());
  EXPECT_EQ(m.find(sv)->second, 7);
  EXPECT_EQ(m.at(sv), 7);

  // Composed pair keys probe with pair<string_view, string_view>.
  FlatMap<std::pair<std::string, std::string>, int> links;
  links[std::pair<std::string, std::string>{"gui", "portal"}] = 3;
  const std::pair<std::string_view, std::string_view> probe{"gui", "portal"};
  EXPECT_TRUE(links.contains(probe));
  ASSERT_NE(links.find(probe), links.end());
  EXPECT_EQ(links.find(probe)->second, 3);
  EXPECT_FALSE(
      links.contains(std::pair<std::string_view, std::string_view>{"x", "y"}));
}

TEST(FlatMap, EmplaceNeverOverwrites) {
  // portal_workload relies on std::map::emplace dedup semantics for
  // sent_at: the first send of an alert id wins.
  FlatMap<std::string, int> m;
  auto [it1, fresh1] = m.emplace("id", 1);
  EXPECT_TRUE(fresh1);
  auto [it2, fresh2] = m.emplace("id", 2);
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(it2->second, 1);
  auto [it3, fresh3] = m.try_emplace("id", 3);
  EXPECT_FALSE(fresh3);
  EXPECT_EQ(it3->second, 1);

  m.insert_or_assign("id", 9);
  EXPECT_EQ(m.at("id"), 9);
}

TEST(FlatMap, GrowthRehashPreservesContents) {
  FlatMap<std::string, int> m;
  const std::size_t initial_buckets = m.bucket_count();
  for (int i = 0; i < 1000; ++i) m["key." + std::to_string(i)] = i;
  EXPECT_GT(m.bucket_count(), initial_buckets);
  EXPECT_EQ(m.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(m.contains("key." + std::to_string(i))) << i;
    EXPECT_EQ(m.at("key." + std::to_string(i)), i);
  }
}

TEST(FlatMap, TombstoneReuseKeepsTableBounded) {
  // A churn loop (insert then erase the same keys) must not grow the
  // table without bound: erased buckets become tombstones and inserts
  // reclaim them; a same-size rehash clears accumulated tombstones.
  FlatMap<std::string, int> m;
  for (int i = 0; i < 64; ++i) m["stable." + std::to_string(i)] = i;
  const std::size_t buckets_after_fill = m.bucket_count();
  for (int round = 0; round < 200; ++round) {
    m["churn"] = round;
    m.erase("churn");
  }
  EXPECT_EQ(m.bucket_count(), buckets_after_fill);
  EXPECT_EQ(m.size(), 64u);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(m.at("stable." + std::to_string(i)), i);
}

TEST(FlatMap, SmallMapModeDefersBucketArrayUntilNinthKey) {
  // Wire-header maps (a handful of entries) must never build a bucket
  // array: lookups linearly scan the dense slots, and the first insert
  // reserves all eight slots in one allocation.
  FlatMap<std::string, int> m;
  for (int i = 0; i < 8; ++i) m[numbered("h", i)] = i;
  EXPECT_EQ(m.bucket_count(), 0u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(m.at(numbered("h", i)), i);
  EXPECT_FALSE(m.contains("absent"));
  EXPECT_EQ(m.erase("h3"), 1u);  // linear-mode erase swap-removes
  EXPECT_EQ(m.erase("h3"), 0u);
  EXPECT_EQ(m.size(), 7u);
  EXPECT_EQ(m.bucket_count(), 0u);
  m["h8"] = 8;  // back to eight entries: still small
  EXPECT_EQ(m.bucket_count(), 0u);
  m["h9"] = 9;  // ninth distinct key graduates to a bucket array
  EXPECT_GT(m.bucket_count(), 0u);
  for (int i = 0; i < 10; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(m.at(numbered("h", i)), i) << i;
  }
  // reserve() within the small cap must not graduate either.
  FlatMap<std::string, int> r;
  r.reserve(8);
  EXPECT_EQ(r.bucket_count(), 0u);
  r.reserve(9);
  EXPECT_GT(r.bucket_count(), 0u);
}

TEST(FlatSet, SmallSetModeDefersBucketArrayUntilNinthKey) {
  FlatSet<std::string> s;
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(s.insert(numbered("k", i)).second);
  EXPECT_FALSE(s.insert("k0").second);
  EXPECT_EQ(s.bucket_count(), 0u);
  EXPECT_TRUE(s.contains("k7"));
  EXPECT_FALSE(s.contains("k8"));
  EXPECT_EQ(s.erase("k2"), 1u);
  EXPECT_EQ(s.erase("k2"), 0u);
  EXPECT_EQ(s.size(), 7u);
  s.insert("k8");
  s.insert("k9");  // ninth entry graduates
  EXPECT_GT(s.bucket_count(), 0u);
  EXPECT_TRUE(s.contains("k9"));
  EXPECT_FALSE(s.contains("k2"));
}

TEST(FlatMap, EraseDuringIterationVisitsEveryElementOnce) {
  // delivery_engine sweeps ack_waiters_ with `it = m.erase(it)` under a
  // value predicate; swap-remove erase must still visit each element
  // exactly once.
  FlatMap<std::string, int> m;
  for (int i = 0; i < 100; ++i) m[numbered("k", i)] = i;
  std::vector<int> visited;
  for (auto it = m.begin(); it != m.end();) {
    visited.push_back(it->second);
    if (it->second % 3 == 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(visited.size(), 100u);
  std::sort(visited.begin(), visited.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(visited[static_cast<size_t>(i)], i);
  EXPECT_EQ(m.size(), 100u - 34u);  // 0,3,...,99 -> 34 multiples of 3
  EXPECT_FALSE(m.contains("k99"));
  EXPECT_TRUE(m.contains("k98"));
}

TEST(FlatMap, SortedItemsMatchesStdMapOrder) {
  FlatMap<std::string, int> m;
  std::map<std::string, int> ref;
  // Insertion order deliberately scrambled relative to sort order.
  for (const char* k : {"zeta", "alpha", "mu", "beta", "omega", "a", "z"}) {
    m[std::string(k)] = static_cast<int>(std::string(k).size());
    ref[k] = static_cast<int>(std::string(k).size());
  }
  std::vector<std::pair<std::string, int>> got;
  for (const auto& [key, value] : m.sorted_items()) got.emplace_back(key, value);
  std::vector<std::pair<std::string, int>> want(ref.begin(), ref.end());
  EXPECT_EQ(got, want);
}

TEST(FlatMap, ClearKeepsCapacityAndReserveGrows) {
  FlatMap<std::string, int> m;
  m.reserve(500);
  const std::size_t reserved = m.bucket_count();
  EXPECT_GE(reserved * 7, (500 + 1) * 8 / 1);  // enough for 500 at 7/8 load
  for (int i = 0; i < 500; ++i) m[numbered("r", i)] = i;
  EXPECT_EQ(m.bucket_count(), reserved);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.bucket_count(), reserved);
}

TEST(FlatSet, InsertContainsEraseAndSortedItems) {
  FlatSet<std::string> s;
  EXPECT_TRUE(s.insert("portal").second);
  EXPECT_FALSE(s.insert("portal").second);
  EXPECT_TRUE(s.insert("gui").second);
  EXPECT_TRUE(s.contains(std::string_view("portal")));
  EXPECT_FALSE(s.contains("email"));
  EXPECT_EQ(s.size(), 2u);

  std::vector<std::string> sorted;
  for (const auto& key : s.sorted_items()) sorted.push_back(key);
  EXPECT_EQ(sorted, (std::vector<std::string>{"gui", "portal"}));

  EXPECT_EQ(s.erase("portal"), 1u);
  EXPECT_EQ(s.erase("portal"), 0u);
  EXPECT_EQ(s.size(), 1u);
}

TEST(FlatMap, IntegerKeys) {
  FlatMap<std::uint64_t, std::string> m;
  const std::string value = "v";
  for (std::uint64_t i = 0; i < 100; ++i) m[i * 1099511628211ull] = value;
  EXPECT_EQ(m.size(), 100u);
  EXPECT_TRUE(m.contains(0ull));
  EXPECT_TRUE(m.contains(99ull * 1099511628211ull));
  EXPECT_FALSE(m.contains(1ull));
}

TEST(Interner, PointerStabilityAcrossGrowth) {
  // StringInterner's FlatMap index is keyed by views into deque-backed
  // storage; interned pointers must survive arbitrary growth.
  StringInterner interner;
  const char* first = interner.intern("first.label");
  const std::string first_copy = first;
  std::vector<const char*> all;
  for (int i = 0; i < 10000; ++i)
    all.push_back(interner.intern("label." + std::to_string(i % 4096)));
  EXPECT_EQ(std::string(first), first_copy);
  EXPECT_EQ(first, interner.intern("first.label"));
  // Re-interning yields the identical pointer, not just equal bytes.
  EXPECT_EQ(all[0], interner.intern("label.0"));
}

// ---------------------------------------------------------------------------
// Differential harness: FlatMap vs std::map over seeded op programs
// ---------------------------------------------------------------------------

// Op mix: weights for insert / operator[] bump / erase / find / emplace.
struct Profile {
  const char* name;
  int insert, bump, erase, find, emplace;
  int key_space;  // distinct keys the program draws from
};

constexpr Profile kProfiles[] = {
    {"bump_heavy", 1, 8, 1, 4, 1, 64},       // counter-style workload
    {"churn", 4, 1, 4, 2, 1, 32},            // insert/erase pressure
    {"wide", 4, 2, 1, 4, 2, 4096},           // growth + rehash pressure
    {"emplace_dedup", 1, 1, 1, 2, 8, 128},   // portal sent_at style
};

std::string make_key(int n) { return "key." + std::to_string(n); }

void run_program(std::uint64_t seed, const Profile& p) {
  Rng rng(seed);
  FlatMap<std::string, std::int64_t> flat;
  std::map<std::string, std::int64_t> ref;

  const int total =
      p.insert + p.bump + p.erase + p.find + p.emplace;
  constexpr int kOps = 4000;
  for (int step = 0; step < kOps; ++step) {
    const std::string key =
        make_key(static_cast<int>(rng.next() % static_cast<std::uint64_t>(
                                                   p.key_space)));
    int pick = static_cast<int>(rng.next() % static_cast<std::uint64_t>(total));
    const auto value = static_cast<std::int64_t>(rng.next() % 1000);
    if ((pick -= p.insert) < 0) {
      flat.insert_or_assign(key, value);
      ref[key] = value;
    } else if ((pick -= p.bump) < 0) {
      flat[key] += value;
      ref[key] += value;
    } else if ((pick -= p.erase) < 0) {
      ASSERT_EQ(flat.erase(key), ref.erase(key)) << "step " << step;
    } else if ((pick -= p.find) < 0) {
      const auto fit = flat.find(std::string_view(key));
      const auto rit = ref.find(key);
      ASSERT_EQ(fit != flat.end(), rit != ref.end()) << "step " << step;
      if (rit != ref.end()) {
        ASSERT_EQ(fit->second, rit->second);
      }
    } else {
      const auto [fit, fresh] = flat.emplace(key, value);
      const auto [rit, rfresh] = ref.emplace(key, value);
      ASSERT_EQ(fresh, rfresh) << "step " << step;
      ASSERT_EQ(fit->second, rit->second) << "step " << step;
    }
    ASSERT_EQ(flat.size(), ref.size()) << "step " << step;

    // Checkpoint: full sorted contents must match the ordered map.
    if (step % 500 == 499) {
      std::vector<std::pair<std::string, std::int64_t>> got;
      for (const auto& [k, v] : flat.sorted_items()) got.emplace_back(k, v);
      std::vector<std::pair<std::string, std::int64_t>> want(ref.begin(),
                                                             ref.end());
      ASSERT_EQ(got, want) << p.name << " seed " << seed << " step " << step;
    }
  }
}

class FlatMapDiff : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatMapDiff, MatchesStdMap) {
  for (const Profile& p : kProfiles) run_program(GetParam(), p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatMapDiff,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace simba::util
