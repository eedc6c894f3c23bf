// Fixture: a store-view overload of a unified entry point. store::StoreParts
// is the Source's store arm, not a third public backend: declaring an entry
// point over it re-forks the API. Expected: 1 analysis-overload finding.
namespace storsubsim::store {
class StoreParts;
}  // namespace storsubsim::store

namespace storsubsim::core {

struct AfrReport;

// Violation: the parts view belongs behind core::Source.
AfrReport compute_afr(const store::StoreParts& parts);

}  // namespace storsubsim::core
