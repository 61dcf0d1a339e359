// Tests for the simulation substrate: clock and cost model.
#include <gtest/gtest.h>

#include "src/sim/clock.h"

namespace mks {
namespace {

TEST(Clock, AdvancesMonotonically) {
  Clock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(5);
  clock.Advance(7);
  EXPECT_EQ(clock.now(), 12u);
}

TEST(CostModel, StructuredFactorApplies) {
  Clock clock;
  CostModel cost(&clock);
  cost.set_structured_factor(2.0);
  cost.Charge(CodeStyle::kOptimized, 100);
  EXPECT_EQ(clock.now(), 100u);
  cost.Charge(CodeStyle::kStructured, 100);
  EXPECT_EQ(clock.now(), 300u);
}

TEST(CostModel, DefaultFactorMatchesThePaperObservation) {
  // "the number of generated machine instructions seems to increase by
  // somewhat more than a factor of two"
  EXPECT_GT(CostModel::kDefaultStructuredFactor, 2.0);
  EXPECT_LT(CostModel::kDefaultStructuredFactor, 2.5);
}

}  // namespace
}  // namespace mks
