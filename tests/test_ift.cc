/**
 * @file
 * Randomized property tests for the taint-coverage matrix and the
 * campaign-global coverage map built on top of it: mergeFrom is
 * commutative, idempotent and monotone; merged/marked imports never
 * leak into the local-gain delta; and GlobalCoverage's atomic-word
 * merge/pull/restore agree with the reference TaintCoverage union.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "campaign/coverage_map.hh"
#include "ift/coverage.hh"
#include "util/rng.hh"

namespace dejavuzz {
namespace {

using PointSet = std::set<std::pair<uint16_t, uint32_t>>;

/** Module widths chosen to straddle the 64-bit word boundaries the
 *  global map packs bitmaps into. */
constexpr uint32_t kModuleWidths[] = {7, 63, 64, 65, 130};

ift::TaintCoverage
blankMap()
{
    ift::TaintCoverage map;
    for (uint32_t width : kModuleWidths)
        map.registerModule("m" + std::to_string(width), width);
    return map;
}

/** A random map over the shared shape; density in [0, 1]. */
ift::TaintCoverage
randomMap(Rng &rng, unsigned percent)
{
    ift::TaintCoverage map = blankMap();
    for (uint16_t m = 0;
         m < static_cast<uint16_t>(map.moduleCount()); ++m) {
        const uint32_t slots = map.moduleSlots(m);
        for (uint32_t s = 1; s < slots; ++s) {
            if (rng.below(100) < percent)
                map.sample(m, s);
        }
    }
    return map;
}

PointSet
points(const ift::TaintCoverage &map)
{
    PointSet out;
    for (const ift::CoveragePoint &point : map.tuples())
        out.insert({point.module_id, point.index});
    return out;
}

PointSet
points(const campaign::GlobalCoverage &map)
{
    ift::TaintCoverage local = blankMap();
    map.pullInto(local);
    return points(local);
}

TEST(TaintCoverage, MergeIsCommutativeIdempotentMonotone)
{
    Rng rng(0x1f71);
    for (int trial = 0; trial < 50; ++trial) {
        const ift::TaintCoverage a = randomMap(rng, 20);
        const ift::TaintCoverage b = randomMap(rng, 20);
        const PointSet pa = points(a), pb = points(b);

        // Commutative: a ∪ b == b ∪ a, as point sets and counts.
        ift::TaintCoverage ab = a, ba = b;
        const uint64_t fresh_ab = ab.mergeFrom(b);
        const uint64_t fresh_ba = ba.mergeFrom(a);
        EXPECT_EQ(points(ab), points(ba));
        EXPECT_EQ(ab.points(), ba.points());

        // The fresh count is exactly the set difference.
        PointSet b_minus_a, a_minus_b;
        std::set_difference(
            pb.begin(), pb.end(), pa.begin(), pa.end(),
            std::inserter(b_minus_a, b_minus_a.end()));
        std::set_difference(
            pa.begin(), pa.end(), pb.begin(), pb.end(),
            std::inserter(a_minus_b, a_minus_b.end()));
        EXPECT_EQ(fresh_ab, b_minus_a.size());
        EXPECT_EQ(fresh_ba, a_minus_b.size());

        // Monotone: no slot of a is ever unset by the merge, and the
        // union is exactly pa ∪ pb.
        PointSet expected = pa;
        expected.insert(pb.begin(), pb.end());
        EXPECT_EQ(points(ab), expected);
        EXPECT_EQ(ab.points(), expected.size());

        // Idempotent: merging the same map again adds nothing.
        EXPECT_EQ(ab.mergeFrom(b), 0u);
        EXPECT_EQ(ab.mergeFrom(a), 0u);
        EXPECT_EQ(points(ab), expected);
    }
}

TEST(TaintCoverage, ImportsNeverCountAsLocalGain)
{
    Rng rng(0x94a1);
    ift::TaintCoverage local = blankMap();
    local.sample(0, 1);
    local.sample(1, 5);
    EXPECT_EQ(local.takeNewPoints(), 2u);

    // mergeFrom and markSlot are imports: the Phase-2 gain delta
    // (takeNewPoints) must stay zero afterwards.
    const ift::TaintCoverage other = randomMap(rng, 30);
    local.mergeFrom(other);
    EXPECT_EQ(local.takeNewPoints(), 0u);
    const bool was_new = local.markSlot(2, 7);
    if (was_new) {
        EXPECT_EQ(local.takeNewPoints(), 0u);
    }

    // A genuine local sample still counts.
    if (!local.slotSet(4, 99)) {
        EXPECT_TRUE(local.sample(4, 99));
        EXPECT_EQ(local.takeNewPoints(), 1u);
    }
}

TEST(TaintCoverage, SampleClampsAndIgnoresZero)
{
    ift::TaintCoverage map = blankMap();
    EXPECT_FALSE(map.sample(0, 0)) << "zero taint is not coverage";
    EXPECT_EQ(map.points(), 0u);

    // Out-of-range counts clamp onto the top slot — one point, not
    // one per distinct oversized count.
    const uint32_t top = map.moduleSlots(0) - 1;
    EXPECT_TRUE(map.sample(0, top + 100));
    EXPECT_FALSE(map.sample(0, top + 500));
    EXPECT_TRUE(map.slotSet(0, top));
    EXPECT_EQ(map.points(), 1u);
}

TEST(GlobalCoverage, MergePullRestoreAgreeWithReferenceUnion)
{
    Rng rng(0x910b);
    for (int trial = 0; trial < 25; ++trial) {
        const ift::TaintCoverage shape = blankMap();
        campaign::GlobalCoverage global(shape);
        ift::TaintCoverage reference = blankMap();

        uint64_t fresh_global = 0;
        for (int w = 0; w < 4; ++w) {
            const ift::TaintCoverage worker = randomMap(rng, 15);
            fresh_global += global.mergeFrom(worker);
            reference.mergeFrom(worker);
        }
        EXPECT_EQ(global.points(), reference.points());
        EXPECT_EQ(fresh_global, reference.points());
        EXPECT_EQ(points(global), points(reference));

        // Re-merging the union is a no-op; pulling twice too.
        EXPECT_EQ(global.mergeFrom(reference), 0u);
        ift::TaintCoverage pulled = blankMap();
        EXPECT_EQ(global.pullInto(pulled), reference.points());
        EXPECT_EQ(global.pullInto(pulled), 0u);

        // Word-level save/restore round trip (the checkpoint path):
        // restoring every word into a blank global map reproduces
        // the identical point set and count.
        campaign::GlobalCoverage restored(shape);
        for (size_t m = 0; m < global.moduleCount(); ++m) {
            for (size_t w = 0; w < global.moduleWords(m); ++w) {
                EXPECT_TRUE(
                    restored.restoreWord(m, w, global.word(m, w)));
            }
        }
        EXPECT_EQ(restored.points(), global.points());
        EXPECT_EQ(points(restored), points(global));

        // Bits past a module's slot count are rejected, leaving the
        // map untouched.
        const size_t last = global.moduleCount() - 1;
        const uint32_t slots = global.moduleSlots(last);
        if (slots % 64 != 0) {
            const size_t word = global.moduleWords(last) - 1;
            const uint64_t bad = uint64_t{1} << (slots % 64);
            const uint64_t before = restored.points();
            EXPECT_FALSE(restored.restoreWord(last, word, bad));
            EXPECT_EQ(restored.points(), before);
        }
    }
}

} // namespace
} // namespace dejavuzz
