#include "qe/plan.h"

#include <algorithm>

namespace natix::qe {

// PlanTemplate::NewContext lives in codegen.cc: instantiation is the
// code generator's Build pass re-run against a fresh context.

size_t PlanTemplate::nvm_insns_after() const {
  size_t total = 0;
  for (const auto& [site, program] : nvm_programs_) {
    total += program.code.size();
  }
  return total;
}

void SortResultNodes(std::vector<runtime::NodeRef>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const runtime::NodeRef& a, const runtime::NodeRef& b) {
              return a.order < b.order;
            });
}

}  // namespace natix::qe
