#include "src/sharing/cost_model.h"

#include <algorithm>

namespace sharon {
namespace {

/// Eq. 1 over the sub-pattern [begin, end) of `p`, summed left to right
/// from 0 exactly as TypeRates::OfPattern sums a copied sub-pattern.
double RateOf(const TypeRates& rates, const Pattern& p, size_t begin,
              size_t end) {
  double r = 0;
  for (size_t i = begin; i < end; ++i) r += rates.Of(p.type(i));
  return r;
}

}  // namespace

double CostModel::MultiplicityFactor(const Pattern& p) {
  size_t k = 1;
  for (EventTypeId t : p.types()) k = std::max(k, p.CountType(t));
  return static_cast<double>(k);
}

double CostModel::NonSharedQuery(const Query& q) const {
  return rates_.Of(q.pattern.front()) * rates_.OfPattern(q.pattern) *
         MultiplicityFactor(q.pattern);
}

double CostModel::NonShared(const Candidate& c, const Workload& w) const {
  double total = 0;
  for (QueryId qid : c.queries) total += NonSharedQuery(w.query(qid));
  return total;
}

double CostModel::Comp(const Pattern& p, const Query& q) const {
  const Pattern& qp = q.pattern;
  auto pos = qp.Find(p);
  if (!pos) return 0;
  const size_t m = *pos;
  const size_t after = m + p.length();
  double cost = 0;
  if (m > 0) cost += rates_.Of(qp.front()) * RateOf(rates_, qp, 0, m);
  if (after < qp.length()) {
    cost += rates_.Of(qp.type(after)) *
            RateOf(rates_, qp, after, qp.length());
  }
  return cost * MultiplicityFactor(qp);
}

double CostModel::Comb(const Pattern& p, const Query& q) const {
  auto pos = q.pattern.Find(p);
  if (!pos) return 0;
  const size_t m = *pos;
  const size_t after = m + p.length();
  const bool has_prefix = m > 0;
  const bool has_suffix = after < q.pattern.length();
  if (!has_prefix && !has_suffix) return 0;  // p is the whole pattern
  double cost = rates_.Of(p.front());
  if (has_prefix) cost *= rates_.Of(q.pattern.front());
  if (has_suffix) cost *= rates_.Of(q.pattern.type(after));
  return cost;
}

double CostModel::SharedQuery(const Pattern& p, const Query& q) const {
  return Comp(p, q) + Comb(p, q);
}

double CostModel::Shared(const Candidate& c, const Workload& w) const {
  double total = rates_.Of(c.pattern.front()) * rates_.OfPattern(c.pattern) *
                 MultiplicityFactor(c.pattern);
  for (QueryId qid : c.queries) total += SharedQuery(c.pattern, w.query(qid));
  return total;
}

double CostModel::BValue(const Candidate& c, const Workload& w) const {
  return NonShared(c, w) - Shared(c, w);
}

double PlanScore(const SharingPlan& plan, const Workload& workload,
                 const CostModel& cm) {
  double score = 0;
  for (const Candidate& c : plan) score += cm.BValue(c, workload);
  return score;
}

}  // namespace sharon
