// Claim evaluator for bench_claims: a claim compares one point's metric
// against another point's metric (or a constant) with an explicit margin,
// and a run passes only if every selected claim holds.
//
// Kept header-only and free of the simulator so the test suite can drive
// it with synthetic metric values.
#pragma once

#include <cmath>
#include <map>
#include <string>
#include <vector>

namespace collapois::bench {

// lhs REL rhs by at least `margin` (margin >= 0):
//   gt: lhs >  rhs + margin      ge: lhs >= rhs + margin
//   lt: lhs <  rhs - margin      le: lhs <= rhs - margin
enum class Relation { gt, ge, lt, le };

inline const char* relation_symbol(Relation r) {
  switch (r) {
    case Relation::gt: return ">";
    case Relation::ge: return ">=";
    case Relation::lt: return "<";
    case Relation::le: return "<=";
  }
  return "?";
}

// A `point.metric` reference, or a constant when `point` is empty.
struct Operand {
  std::string point;
  std::string metric;
  double constant = 0.0;
};

inline Operand ref(std::string point, std::string metric) {
  return {std::move(point), std::move(metric), 0.0};
}
inline Operand constant(double v) { return {"", "", v}; }

struct Claim {
  std::string figure;
  Operand lhs;
  Relation relation = Relation::gt;
  Operand rhs;
  double margin = 0.0;
};

// Metric values of every point that ran: point id -> metric -> value.
using PointValues = std::map<std::string, std::map<std::string, double>>;

struct Verdict {
  double lhs = 0.0;
  double rhs = 0.0;
  bool pass = false;
};

// A non-finite operand fails every relation: a diverged run must never
// pass a claim.
inline bool holds(double lhs, Relation rel, double rhs, double margin) {
  if (!std::isfinite(lhs) || !std::isfinite(rhs)) return false;
  switch (rel) {
    case Relation::gt: return lhs > rhs + margin;
    case Relation::ge: return lhs >= rhs + margin;
    case Relation::lt: return lhs < rhs - margin;
    case Relation::le: return lhs <= rhs - margin;
  }
  return false;
}

// The operand's value; NaN when the point or metric did not run.
inline double resolve(const Operand& op, const PointValues& values) {
  if (op.point.empty()) return op.constant;
  const auto p = values.find(op.point);
  if (p == values.end()) return std::nan("");
  const auto m = p->second.find(op.metric);
  return m == p->second.end() ? std::nan("") : m->second;
}

inline Verdict evaluate(const Claim& c, const PointValues& values) {
  Verdict v;
  v.lhs = resolve(c.lhs, values);
  v.rhs = resolve(c.rhs, values);
  v.pass = holds(v.lhs, c.relation, v.rhs, c.margin);
  return v;
}

// Process exit status of a claims run: non-zero if any claim failed.
inline int exit_status(const std::vector<Verdict>& verdicts) {
  for (const Verdict& v : verdicts) {
    if (!v.pass) return 1;
  }
  return 0;
}

}  // namespace collapois::bench
