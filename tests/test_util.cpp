#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/interp.hpp"
#include "util/json.hpp"
#include "util/names.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace cu = comet::util;

// ----------------------------------------------------------------- json

TEST(Json, StringEscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(cu::json_string("plain"), "\"plain\"");
  EXPECT_EQ(cu::json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(cu::json_string("\n\t"), "\"\\u000a\\u0009\"");
  EXPECT_EQ(cu::json_string(std::string("\x00\x01\x1f", 3)),
            "\"\\u0000\\u0001\\u001f\"");
  // DEL and UTF-8 bytes are legal inside JSON strings as-is.
  EXPECT_EQ(cu::json_string("\x7f\xc3\xa9"), "\"\x7f\xc3\xa9\"");
}

TEST(Json, NumberIsTheShortestRoundTripForm) {
  EXPECT_EQ(cu::json_number(2500.0), "2.5e+03");
  EXPECT_EQ(cu::json_number(0.1), "0.1");
  EXPECT_EQ(cu::json_number(1e-300), "1e-300");
  const double third = 1.0 / 3.0;
  EXPECT_EQ(std::stod(cu::json_number(third)), third);
}

// ---------------------------------------------------------------- units

TEST(Units, DbRoundTrip) {
  for (const double db : {-30.0, -3.0, 0.0, 0.2, 3.01, 15.2, 20.0}) {
    EXPECT_NEAR(cu::ratio_to_db(cu::db_to_ratio(db)), db, 1e-12);
  }
}

TEST(Units, DbmKnownValues) {
  EXPECT_NEAR(cu::dbm_to_mw(10.0), 10.0, 1e-12);
}

TEST(Units, LossTransmissionInverse) {
  EXPECT_NEAR(cu::transmission_to_loss_db(0.5), 3.0103, 1e-4);
}

TEST(Units, WavelengthFrequency) {
  const double f = cu::wavelength_nm_to_hz(1550.0);
  EXPECT_NEAR(f, 193.414e12, 0.01e12);
}

TEST(Units, TimeConversions) {
  EXPECT_EQ(cu::ns_to_ps(2.0), 2000u);
  EXPECT_DOUBLE_EQ(cu::ps_to_ns(1500), 1.5);
}

// ---------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  cu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  cu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  cu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BoundedBelow) {
  cu::Rng rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, BernoulliMean) {
  cu::Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  cu::Rng rng(19);
  cu::RunningStats st;
  for (int i = 0; i < 100000; ++i) st.add(rng.next_exponential(4.0));
  EXPECT_NEAR(st.mean(), 4.0, 0.1);
}

TEST(Rng, ZipfSkewsLow) {
  cu::Rng rng(23);
  int first_bucket = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) first_bucket += (rng.next_zipf(100, 1.2) == 0);
  // Rank 0 should dominate under s = 1.2 (>= 15 % of mass for n=100).
  EXPECT_GT(first_bucket, n * 15 / 100);
}

TEST(Rng, ZipfZeroExponentIsUniformish) {
  cu::Rng rng(29);
  int first_bucket = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) first_bucket += (rng.next_zipf(10, 0.0) == 0);
  EXPECT_NEAR(first_bucket / double(n), 0.1, 0.02);
}

// The guide-table sampler must return the subtraction scan's rank for
// every u. Large exponents underflow the tail weights to 0 (repeated
// running sums); 1e-9 makes the law nearly uniform.
TEST(ZipfTable, IndexMatchesScanOnRandomAndAdversarialU) {
  const std::uint64_t ranks[] = {2, 3, 10, 100, 1000, 4096, 5000};
  const double exponents[] = {1e-9, 0.1, 0.6, 0.8,  0.9,  1.1,   1.2,
                              2.0,  5.0, 50,  1070, 1100, 1e300};
  cu::Rng rng(31);
  for (const std::uint64_t n : ranks) {
    for (const double s : exponents) {
      const cu::ZipfTable table(n, s);
      const auto& prefix = table.prefix();
      const double h = table.total();
      const double delta = table.margin();
      ASSERT_EQ(prefix.size(), n);
      for (int i = 0; i < 20000; ++i) {
        const double u = rng.next_double() * h;
        ASSERT_EQ(table.index(u), table.scan(u))
            << "n " << n << " s " << s << " u " << u;
      }
      // Every running sum, its neighbouring doubles and the margin edges,
      // plus the ends of next_zipf's range: u = 0, h and the largest
      // draw next_double() * h can give.
      std::vector<double> adversarial = {0.0, h, (1.0 - 0x1.0p-53) * h};
      for (const double p : prefix) {
        for (const double u : {p, std::nextafter(p, 0.0),
                               std::nextafter(p, 2 * h), p - delta,
                               p + delta}) {
          if (u >= 0.0 && u <= h) adversarial.push_back(u);
        }
      }
      int in_margin = 0;
      for (const double u : adversarial) {
        ASSERT_EQ(table.index(u), table.scan(u))
            << "n " << n << " s " << s << " u " << u;
        // index() runs the scan when u is within the margin of the first
        // running sum >= u or of the one before it.
        const auto k = std::size_t(
            std::lower_bound(prefix.begin(), prefix.end(), u) -
            prefix.begin());
        in_margin += prefix[k] - u <= delta ||
                     (k > 0 && u - prefix[k - 1] <= delta);
      }
      EXPECT_GT(in_margin, 0) << "n " << n << " s " << s
                              << ": the fallback scan was never reached";
    }
  }
}

TEST(ZipfTable, NextZipfScansFromOneUniformDraw) {
  for (const double s : {0.6, 0.9, 1.1}) {
    cu::Rng sampled(37), uniform(37);
    const cu::ZipfTable table(4096, s);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_EQ(sampled.next_zipf(4096, s),
                table.scan(uniform.next_double() * table.total()));
    }
  }
}

TEST(ZipfTable, RejectsEmptyAndOversizedRankCounts) {
  EXPECT_THROW(cu::ZipfTable(0, 1.0), std::invalid_argument);
  EXPECT_THROW(cu::ZipfTable(std::uint64_t{1} << 32, 1.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------- interp

TEST(Linspace, EndpointsAndCount) {
  const auto v = cu::linspace(1530.0, 1565.0, 36);
  ASSERT_EQ(v.size(), 36u);
  EXPECT_DOUBLE_EQ(v.front(), 1530.0);
  EXPECT_DOUBLE_EQ(v.back(), 1565.0);
  EXPECT_NEAR(v[1] - v[0], 1.0, 1e-12);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, KnownSequence) {
  cu::RunningStats st;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_DOUBLE_EQ(st.variance(), 4.0);
  EXPECT_DOUBLE_EQ(st.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_DOUBLE_EQ(st.sum(), 40.0);
  EXPECT_EQ(st.count(), 8u);
}

TEST(RunningStats, EmptyIsSafe) {
  cu::RunningStats st;
  EXPECT_DOUBLE_EQ(st.mean(), 0.0);
  EXPECT_DOUBLE_EQ(st.variance(), 0.0);
  EXPECT_DOUBLE_EQ(st.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(st.p95(), 0.0);
}

TEST(RunningStats, PercentileOfConstantStreamIsExact) {
  // Min/max clamping makes single-value and constant streams exact
  // despite the log bucketing.
  cu::RunningStats st;
  st.add(42.5);
  EXPECT_DOUBLE_EQ(st.p50(), 42.5);
  for (int i = 0; i < 100; ++i) st.add(42.5);
  EXPECT_DOUBLE_EQ(st.p50(), 42.5);
  EXPECT_DOUBLE_EQ(st.p99(), 42.5);
  EXPECT_DOUBLE_EQ(st.percentile(0.0), 42.5);
  EXPECT_DOUBLE_EQ(st.percentile(1.0), 42.5);
}

TEST(RunningStats, PercentilesApproximateUniformSamples) {
  cu::RunningStats st;
  for (int i = 1; i <= 1000; ++i) st.add(double(i));
  // Log-bucket resolution is 2^(1/8): ~±4.5% relative error.
  EXPECT_NEAR(st.p50(), 500.0, 500.0 * 0.05);
  EXPECT_NEAR(st.p95(), 950.0, 950.0 * 0.05);
  EXPECT_NEAR(st.p99(), 990.0, 990.0 * 0.05);
  EXPECT_LE(st.p50(), st.p95());
  EXPECT_LE(st.p95(), st.p99());
  EXPECT_GE(st.p50(), st.min());
  EXPECT_LE(st.p99(), st.max());
}

TEST(RunningStats, PercentileHandlesZerosAndUnderflow) {
  cu::RunningStats st;
  for (int i = 0; i < 10; ++i) st.add(0.0);
  st.add(100.0);
  // The underflow bucket collapses to min().
  EXPECT_DOUBLE_EQ(st.p50(), 0.0);
  EXPECT_DOUBLE_EQ(st.percentile(1.0), 100.0);
}

TEST(RunningStats, MergeCoversPercentiles) {
  // merge() must behave as if every sample of `other` had been added
  // here — including the percentile histogram.
  cu::RunningStats a, b, combined;
  for (int i = 1; i <= 400; ++i) {
    a.add(double(i));
    combined.add(double(i));
  }
  for (int i = 401; i <= 1000; ++i) {
    b.add(double(i));
    combined.add(double(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.p50(), combined.p50());
  EXPECT_DOUBLE_EQ(a.p95(), combined.p95());
  EXPECT_DOUBLE_EQ(a.p99(), combined.p99());

  // Merging into an empty accumulator copies the histogram wholesale.
  cu::RunningStats empty;
  empty.merge(combined);
  EXPECT_DOUBLE_EQ(empty.p95(), combined.p95());
  // Merging an empty accumulator changes nothing.
  const double before = combined.p95();
  combined.merge(cu::RunningStats{});
  EXPECT_DOUBLE_EQ(combined.p95(), before);
}

// ---------------------------------------------------------------- table

TEST(Table, AlignedOutputContainsCells) {
  cu::Table t({"arch", "bw"});
  t.add_row({"COMET", "123.4"});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("COMET"), std::string::npos);
  EXPECT_NE(s.find("123.4"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, CsvQuotesCommas) {
  cu::Table t({"a"});
  t.add_row({"x,y"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  cu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(cu::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(cu::Table::sci(12345.0, 2), "1.23e+04");
}

// ------------------------------------------------------ RingQueue

TEST(RingQueue, FifoAcrossWraparound) {
  comet::util::RingQueue<int> q(4);  // power-of-two rounding from ctor
  int next_in = 0;
  int next_out = 0;
  // Push/pop in a pattern that forces head_ to wrap many times without
  // ever growing the allocation.
  for (int round = 0; round < 100; ++round) {
    while (q.size() < 3) q.push_back(next_in++);
    while (q.size() > 1) {
      EXPECT_EQ(q.front(), next_out);
      q.pop_front();
      ++next_out;
    }
  }
  EXPECT_LE(q.capacity(), 8u);  // never grew past the initial reserve
}

TEST(RingQueue, GrowsPreservingOrder) {
  comet::util::RingQueue<int> q;
  // Offset the head first so the grow copy has to unwrap a wrapped run.
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) q.pop_front();
  for (int i = 6; i < 40; ++i) q.push_back(i);  // forces several grows
  ASSERT_EQ(q.size(), 35u);
  for (int i = 0; i < 35; ++i) EXPECT_EQ(q[i], i + 5);
}

TEST(RingQueue, IndexingCountsFromFront) {
  comet::util::RingQueue<int> q;
  for (int i = 0; i < 4; ++i) q.push_back(i * 10);
  q.pop_front();
  EXPECT_EQ(q[0], 10);
  EXPECT_EQ(q[2], 30);
  q[1] = 99;
  q.pop_front();
  EXPECT_EQ(q.front(), 99);
}

TEST(RingQueue, EraseAtShiftsOnlyElementsAheadOfVictim) {
  comet::util::RingQueue<int> q;
  for (int i = 0; i < 6; ++i) q.push_back(i);
  q.erase_at(3);  // remove value 3
  ASSERT_EQ(q.size(), 5u);
  const int expected[] = {0, 1, 2, 4, 5};
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(q[i], expected[i]);
  q.erase_at(0);  // victim at the front degenerates to pop_front
  EXPECT_EQ(q.front(), 1);
}

TEST(RingQueue, ClearResetsToEmpty) {
  comet::util::RingQueue<int> q(2);
  q.push_back(1);
  q.push_back(2);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push_back(7);
  EXPECT_EQ(q.front(), 7);
}

// ---------------------------------------------------------------- names

TEST(Names, FindNamedListsTheValidSet) {
  constexpr cu::Named<int> one[] = {{"a", 1}};
  constexpr cu::Named<int> three[] = {{"a", 1}, {"b", 2}, {"c", 3}};
  EXPECT_EQ(cu::find_named(three, "b", "letter").value, 2);
  EXPECT_STREQ(cu::name_of(three, 3), "c");
  const auto message = [](const auto& rows) {
    try {
      (void)cu::find_named(rows, "z", "letter");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(message(one), "unknown letter 'z'; expected a");
  EXPECT_EQ(message(three), "unknown letter 'z'; expected a, b or c");
}
