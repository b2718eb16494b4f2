// The claims gate (bench/claims.h) driven with synthetic metric values:
// every relation honours its margin at the boundary, a non-finite or
// missing operand fails every relation, and one failed claim makes the
// runner's exit status non-zero.
#include <gtest/gtest.h>

#include <limits>

#include "claims.h"

namespace collapois::bench {
namespace {

const Relation kRelations[] = {Relation::gt, Relation::ge, Relation::lt,
                               Relation::le};

TEST(Claims, RelationsHonourTheirMargin) {
  // Values chosen exactly representable, so rhs +/- margin is exact.
  EXPECT_TRUE(holds(0.75, Relation::gt, 0.5, 0.125));
  EXPECT_FALSE(holds(0.625, Relation::gt, 0.5, 0.125));  // boundary
  EXPECT_FALSE(holds(0.5, Relation::gt, 0.5, 0.125));
  EXPECT_TRUE(holds(0.625, Relation::ge, 0.5, 0.125));   // boundary
  EXPECT_FALSE(holds(0.5625, Relation::ge, 0.5, 0.125));

  EXPECT_TRUE(holds(0.25, Relation::lt, 0.5, 0.125));
  EXPECT_FALSE(holds(0.375, Relation::lt, 0.5, 0.125));  // boundary
  EXPECT_TRUE(holds(0.375, Relation::le, 0.5, 0.125));   // boundary
  EXPECT_FALSE(holds(0.4375, Relation::le, 0.5, 0.125));

  // Margin 0: ge/le accept ties (top-k SR ties at 1.0), gt/lt do not.
  EXPECT_TRUE(holds(1.0, Relation::ge, 1.0, 0.0));
  EXPECT_TRUE(holds(1.0, Relation::le, 1.0, 0.0));
  EXPECT_FALSE(holds(1.0, Relation::gt, 1.0, 0.0));
  EXPECT_FALSE(holds(1.0, Relation::lt, 1.0, 0.0));
}

TEST(Claims, NonFiniteOperandFailsEveryRelation) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (Relation rel : kRelations) {
    for (double x : bad) {
      EXPECT_FALSE(holds(x, rel, 0.5, 0.0)) << relation_symbol(rel) << " " << x;
      EXPECT_FALSE(holds(0.5, rel, x, 0.0)) << relation_symbol(rel) << " " << x;
      EXPECT_FALSE(holds(x, rel, x, 0.0)) << relation_symbol(rel) << " " << x;
    }
  }
}

TEST(Claims, EvaluateResolvesPointsAndConstants) {
  const PointValues values = {{"figA/p", {{"attack_sr", 0.9}}},
                              {"figA/q", {{"attack_sr", 0.4}}}};
  const Claim beats{"figA", ref("figA/p", "attack_sr"), Relation::gt,
                    ref("figA/q", "attack_sr"), 0.25};
  const Verdict v = evaluate(beats, values);
  EXPECT_TRUE(v.pass);
  EXPECT_EQ(v.lhs, 0.9);
  EXPECT_EQ(v.rhs, 0.4);
  EXPECT_FALSE(evaluate({"figA", ref("figA/q", "attack_sr"), Relation::ge,
                         constant(0.75), 0.0},
                        values)
                   .pass);
  // A point or metric that did not run resolves to NaN and fails.
  EXPECT_FALSE(evaluate({"figA", ref("figA/missing", "attack_sr"),
                         Relation::le, constant(1.0), 0.0},
                        values)
                   .pass);
  EXPECT_FALSE(evaluate({"figA", ref("figA/p", "top1_sr"), Relation::le,
                         constant(1.0), 0.0},
                        values)
                   .pass);
}

TEST(Claims, OneFailedClaimMakesExitStatusNonZero) {
  EXPECT_EQ(exit_status({}), 0);
  Verdict pass;
  pass.pass = true;
  Verdict fail;
  fail.pass = false;
  EXPECT_EQ(exit_status({pass, pass, pass}), 0);
  EXPECT_NE(exit_status({pass, fail, pass}), 0);
  // A diverged metric fails its claim, and so the run.
  const PointValues diverged = {
      {"figA/p", {{"attack_sr", std::numeric_limits<double>::quiet_NaN()}}}};
  const Verdict v = evaluate(
      {"figA", ref("figA/p", "attack_sr"), Relation::le, constant(1.0), 0.0},
      diverged);
  EXPECT_NE(exit_status({pass, v}), 0);
}

}  // namespace
}  // namespace collapois::bench
